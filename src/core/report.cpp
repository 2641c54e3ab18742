#include "core/report.hpp"

#include <fstream>

#include "common/strings.hpp"
#include "stats/descriptive.hpp"

namespace mm::core {
namespace {

// Column order used throughout the paper's tables.
constexpr std::size_t column_order[] = {
    static_cast<std::size_t>(stats::Ctype::maronna),
    static_cast<std::size_t>(stats::Ctype::pearson),
    static_cast<std::size_t>(stats::Ctype::combined),
};

std::string row(const char* label, const double* values, bool as_percent,
                int decimals) {
  std::string out = pad_right(label, 20);
  for (int c = 0; c < 3; ++c) {
    const double v = as_percent ? values[c] * 100.0 : values[c];
    out += pad_left(format("%.*f%s", decimals, v, as_percent ? "%" : ""), 14);
  }
  return out + "\n";
}

}  // namespace

const char* measure_name(Measure m) {
  switch (m) {
    case Measure::monthly_return: return "average cumulative monthly returns";
    case Measure::max_daily_drawdown: return "average maximum daily drawdown";
    case Measure::win_loss: return "average win-loss ratio";
  }
  return "?";
}

const std::vector<double>& sample_of(const ExperimentResult& result, Measure m,
                                     std::size_t ctype_index) {
  switch (m) {
    case Measure::monthly_return: return result.monthly_return_plus1[ctype_index];
    case Measure::max_daily_drawdown: return result.max_daily_drawdown[ctype_index];
    case Measure::win_loss: return result.win_loss[ctype_index];
  }
  MM_ASSERT_MSG(false, "unreachable Measure");
  return result.win_loss[0];
}

std::string render_table(const ExperimentResult& result, Measure m,
                         bool include_sharpe, bool as_percent) {
  stats::Summary s[3];
  for (int c = 0; c < 3; ++c)
    s[c] = stats::summarize(sample_of(result, m, column_order[c]));

  std::string out = pad_right("", 20);
  for (const auto c : column_order)
    out += pad_left(stats::to_string(static_cast<stats::Ctype>(c)), 14);
  out += "\n";

  const int dec = as_percent ? 4 : 4;
  double v[3];
  const auto emit = [&](const char* label, auto getter, bool pct, int decimals) {
    for (int c = 0; c < 3; ++c) v[c] = getter(s[c]);
    out += row(label, v, pct, decimals);
  };
  emit("Mean", [](const stats::Summary& x) { return x.mean; }, as_percent, dec);
  emit("Median", [](const stats::Summary& x) { return x.median; }, as_percent, dec);
  emit("Standard Deviation", [](const stats::Summary& x) { return x.stddev; },
       as_percent, dec);
  if (include_sharpe)
    emit("Sharpe Ratio", [](const stats::Summary& x) { return x.sharpe; }, false, 4);
  emit("Skewness", [](const stats::Summary& x) { return x.skewness; }, false, 4);
  emit("Kurtosis", [](const stats::Summary& x) { return x.kurtosis; }, false, 4);
  return out;
}

std::string render_boxplots(const ExperimentResult& result, Measure m) {
  // Shared axis across treatments so the plots compare visually.
  double lo = 1e300, hi = -1e300;
  stats::BoxPlot boxes[3];
  for (int c = 0; c < 3; ++c) {
    const auto& sample = sample_of(result, m, column_order[c]);
    boxes[c] = stats::box_plot(sample);
    for (double x : sample) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  if (hi <= lo) hi = lo + 1e-9;

  std::string out;
  for (int c = 0; c < 3; ++c) {
    const auto name = stats::to_string(static_cast<stats::Ctype>(column_order[c]));
    const auto& b = boxes[c];
    out += format("%-9s q1=%.4f med=%.4f q3=%.4f whiskers=[%.4f, %.4f] outliers=%zu\n",
                  name, b.q1, b.median, b.q3, b.whisker_low, b.whisker_high,
                  b.outliers.size());
    out += format("%-9s ", name) + stats::render_ascii(b, lo, hi, 70) + "\n";
  }
  out += format("axis: [%.4f, %.4f]\n", lo, hi);
  return out;
}

std::string paper_reference(Measure m) {
  switch (m) {
    case Measure::monthly_return:
      return
          "paper (Table III):        Maronna       Pearson      Combined\n"
          "  Mean                     1.1473        1.1521        1.1098\n"
          "  Median                   1.1204        1.1278        1.0979\n"
          "  Standard Deviation       0.1235        0.1085        0.0747\n"
          "  Sharpe Ratio             9.2899       10.6184       14.8568\n"
          "  Skewness                 2.8484        1.9281        1.4871\n"
          "  Kurtosis                16.6541        9.4091        7.1706\n";
    case Measure::max_daily_drawdown:
      return
          "paper (Table IV):         Maronna       Pearson      Combined\n"
          "  Mean                    1.6662%       1.5433%       1.5666%\n"
          "  Median                  1.2446%       1.1533%       1.1702%\n"
          "  Standard Deviation       1.5481        1.4606        1.4668\n"
          "  Skewness                 3.4443        3.5005        3.8890\n"
          "  Kurtosis                21.5922       21.5295       27.3131\n";
    case Measure::win_loss:
      return
          "paper (Table V):          Maronna       Pearson      Combined\n"
          "  Mean                     1.2697        1.2724        1.2787\n"
          "  Median                   1.2652        1.2688        1.2689\n"
          "  Standard Deviation       0.1263        0.1269        0.1356\n"
          "  Skewness                 0.2897        0.2521        0.3002\n"
          "  Kurtosis                 3.0781        3.0665        3.0991\n";
  }
  return "";
}

std::vector<ShapeVerdict> shape_verdicts(const ExperimentResult& result, Measure m) {
  using stats::Ctype;
  using stats::Summary;
  stats::Summary s[3];  // indexed by Ctype
  for (std::size_t c = 0; c < 3; ++c) s[c] = stats::summarize(sample_of(result, m, c));

  struct Claim {
    Ctype who;
    bool highest;
    const char* statistic;
    double Summary::*field;
  };
  std::vector<Claim> claims;
  switch (m) {
    case Measure::monthly_return:
      claims = {{Ctype::pearson, true, "mean", &Summary::mean},
                {Ctype::combined, false, "standard deviation", &Summary::stddev},
                {Ctype::combined, true, "Sharpe ratio", &Summary::sharpe},
                {Ctype::maronna, true, "kurtosis", &Summary::kurtosis}};
      break;
    case Measure::max_daily_drawdown:
      claims = {{Ctype::pearson, false, "mean", &Summary::mean},
                {Ctype::maronna, true, "mean", &Summary::mean}};
      break;
    case Measure::win_loss:
      claims = {{Ctype::combined, true, "mean", &Summary::mean}};
      break;
  }

  // Table IV's drawdowns read as percentages, as in render_table.
  const bool as_percent = m == Measure::max_daily_drawdown;
  std::vector<ShapeVerdict> out;
  for (const auto& claim : claims) {
    ShapeVerdict v;
    v.claim = format("%s has the %s %s", stats::to_string(claim.who),
                     claim.highest ? "highest" : "lowest", claim.statistic);
    const double mine = s[static_cast<std::size_t>(claim.who)].*claim.field;
    v.holds = true;
    for (std::size_t c = 0; c < 3; ++c) {
      if (c == static_cast<std::size_t>(claim.who)) continue;
      const double other = s[c].*claim.field;
      if (claim.highest ? !(mine > other) : !(mine < other)) v.holds = false;
    }
    for (const auto c : column_order) {
      const double x = s[c].*claim.field;
      v.measured += format("%s%s %.4f%s", v.measured.empty() ? "" : ", ",
                           stats::to_string(static_cast<Ctype>(c)),
                           as_percent ? 100.0 * x : x, as_percent ? "%" : "");
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::string render_verdicts(const ExperimentResult& result, Measure m) {
  std::string out;
  for (const auto& v : shape_verdicts(result, m))
    out += format("%s %s: %s\n", v.holds ? "✔" : "✘", v.claim.c_str(),
                  v.measured.c_str());
  return out;
}

Status write_experiment_csv(const ExperimentResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Error(Errc::io_error, "cannot open for write: " + path);
  out << "pair,ctype,monthly_return_plus1,max_daily_drawdown,win_loss\n";
  for (std::size_t c = 0; c < 3; ++c) {
    const auto* name = stats::to_string(static_cast<stats::Ctype>(c));
    for (std::size_t p = 0; p < result.pair_count; ++p) {
      out << result.pair_names[p] << ',' << name << ','
          << format("%.10g,%.10g,%.10g\n", result.monthly_return_plus1[c][p],
                    result.max_daily_drawdown[c][p], result.win_loss[c][p]);
    }
  }
  out.flush();
  if (!out) return Error(Errc::io_error, "write failed: " + path);
  return {};
}

}  // namespace mm::core
