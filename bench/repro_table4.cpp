// Table IV reproduction: average maximum daily drawdown per correlation type.
#include <cstdio>

#include "core/report.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  mm::Cli cli("repro_table4", "Reproduce Table IV: average maximum daily drawdown");
  const auto cfg = mm::bench::build_config(cli, argc, argv);
  const auto result = mm::bench::run_with_banner(
      cfg, "Table IV — average maximum daily drawdown");

  using mm::core::Measure;
  std::printf("%s\n", mm::core::render_table(result, Measure::max_daily_drawdown,
                                             /*include_sharpe=*/false,
                                             /*as_percent=*/true)
                          .c_str());
  std::printf("%s%s\n", mm::core::paper_reference(Measure::max_daily_drawdown).c_str(),
              mm::core::render_verdicts(result, Measure::max_daily_drawdown).c_str());
  return 0;
}
