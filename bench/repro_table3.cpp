// Table III reproduction: average cumulative monthly returns per correlation
// type (mean/median/stddev/Sharpe/skewness/kurtosis over the per-pair,
// level-averaged samples).
#include <cstdio>

#include "core/report.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  mm::Cli cli("repro_table3",
              "Reproduce Table III: average cumulative monthly returns");
  const auto cfg = mm::bench::build_config(cli, argc, argv);
  const auto result = mm::bench::run_with_banner(
      cfg, "Table III — average cumulative monthly returns (r-bar + 1)");

  using mm::core::Measure;
  std::printf("%s\n", mm::core::render_table(result, Measure::monthly_return,
                                             /*include_sharpe=*/true,
                                             /*as_percent=*/false)
                          .c_str());
  std::printf("%s%s\n", mm::core::paper_reference(Measure::monthly_return).c_str(),
              mm::core::render_verdicts(result, Measure::monthly_return).c_str());
  return 0;
}
