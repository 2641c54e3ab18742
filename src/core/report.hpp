// Report rendering for the reproduction benches: Tables III-V rows and the
// Figure 2 box plots, in the paper's layout, plus the paper's published
// numbers and a measured verdict on each of its qualitative claims.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "stats/boxplot.hpp"

namespace mm::core {

// Which of the three per-pair measures a table reports.
enum class Measure { monthly_return, max_daily_drawdown, win_loss };

const char* measure_name(Measure m);

// Sample for (measure, ctype) from an experiment result.
const std::vector<double>& sample_of(const ExperimentResult& result, Measure m,
                                     std::size_t ctype_index);

// A Tables-III/V-style block: rows = Mean/Median/StdDev[/Sharpe]/Skew/Kurt,
// columns = Maronna | Pearson | Combined (the paper's column order).
// `as_percent` renders values ×100 with a % sign (Table IV's drawdowns).
std::string render_table(const ExperimentResult& result, Measure m,
                         bool include_sharpe, bool as_percent);

// Figure-2-style block: per treatment, the five-number summary, outlier
// count, and an ASCII box plot on a shared axis.
std::string render_boxplots(const ExperimentResult& result, Measure m);

// The paper's published Table III/IV/V values, printed beneath each
// reproduced table.
std::string paper_reference(Measure m);

// One of the paper's qualitative claims about a table, judged on measured
// per-treatment summaries. A claim that one treatment has the highest (or
// lowest) value of a statistic holds only if it is strictly above (below)
// both others.
struct ShapeVerdict {
  std::string claim;     // e.g. "Pearson has the highest mean"
  bool holds = false;
  std::string measured;  // the statistic per treatment, in column order
};

// The paper's claims per table:
//   Table III  Pearson has the highest mean; Combined has the lowest standard
//              deviation and the highest Sharpe ratio; Maronna has the
//              highest kurtosis.
//   Table IV   Pearson has the lowest mean; Maronna has the highest mean.
//   Table V    Combined has the highest mean.
std::vector<ShapeVerdict> shape_verdicts(const ExperimentResult& result, Measure m);

// The verdicts, one "✔ claim: measured" or "✘ claim: measured" line each.
std::string render_verdicts(const ExperimentResult& result, Measure m);

// Export the per-pair samples as CSV
// (pair,ctype,monthly_return_plus1,max_daily_drawdown,win_loss), one row per
// (pair, treatment) — the raw data behind Tables III-V and Figure 2, ready
// for external plotting.
Status write_experiment_csv(const ExperimentResult& result, const std::string& path);

}  // namespace mm::core
