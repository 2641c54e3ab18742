// Combined evaluation report: Tables III, IV, V and Figure 2 from a single
// experiment run (the per-table drivers re-run the experiment each; use this
// one for the paper-scale --full sweep so the heavy compute happens once).
#include <cstdio>

#include "core/report.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  mm::Cli cli("repro_report",
              "Tables III-V and Figure 2 from one experiment run");
  auto& csv = cli.add_string("csv", "", "also export per-pair samples to this CSV");
  const auto cfg = mm::bench::build_config(cli, argc, argv);
  const auto result = mm::bench::run_with_banner(
      cfg, "Full evaluation report (Tables III-V, Figure 2)");

  using mm::core::Measure;
  const struct {
    Measure measure;
    const char* title;
    bool sharpe;
    bool percent;
  } tables[] = {
      {Measure::monthly_return, "Table III — average cumulative monthly returns",
       true, false},
      {Measure::max_daily_drawdown, "Table IV — average maximum daily drawdown",
       false, true},
      {Measure::win_loss, "Table V — average win-loss ratio", false, false},
  };
  for (const auto& t : tables) {
    std::printf("%s\n%s\n%s%s\n", t.title,
                mm::core::render_table(result, t.measure, t.sharpe, t.percent).c_str(),
                mm::core::paper_reference(t.measure).c_str(),
                mm::core::render_verdicts(result, t.measure).c_str());
  }

  const struct {
    Measure measure;
    const char* title;
  } panels[] = {
      {Measure::monthly_return, "(a) average cumulative monthly returns"},
      {Measure::max_daily_drawdown, "(b) average maximum daily drawdown"},
      {Measure::win_loss, "(c) average win-loss ratio"},
  };
  for (const auto& panel : panels) {
    std::printf("Figure 2%s\n%s\n", panel.title,
                mm::core::render_boxplots(result, panel.measure).c_str());
  }

  if (!csv.empty()) {
    if (auto st = mm::core::write_experiment_csv(result, csv); !st) {
      std::fprintf(stderr, "csv export failed: %s\n", st.error().message.c_str());
      return 1;
    }
    std::printf("per-pair samples exported to %s\n", csv.c_str());
  }
  return 0;
}
