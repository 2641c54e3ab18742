// Table V reproduction: average win-loss ratio per correlation type.
#include <cstdio>

#include "core/report.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  mm::Cli cli("repro_table5", "Reproduce Table V: average win-loss ratio");
  const auto cfg = mm::bench::build_config(cli, argc, argv);
  const auto result =
      mm::bench::run_with_banner(cfg, "Table V — average win-loss ratio");

  using mm::core::Measure;
  std::printf("%s\n", mm::core::render_table(result, Measure::win_loss,
                                             /*include_sharpe=*/false,
                                             /*as_percent=*/false)
                          .c_str());
  std::printf("%s%s\n", mm::core::paper_reference(Measure::win_loss).c_str(),
              mm::core::render_verdicts(result, Measure::win_loss).c_str());
  return 0;
}
