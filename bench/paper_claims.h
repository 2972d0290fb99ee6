#ifndef ELASTICORE_BENCH_PAPER_CLAIMS_H_
#define ELASTICORE_BENCH_PAPER_CLAIMS_H_

// The paper's Section V claims as verdicts. bench/paper_claims builds one
// Claim per claim from its runs and writes them to BENCH_paper_claims.json;
// tests/bench/paper_claims_test.cc reads that file back and checks that
// each verdict is Holds() of its cells and can fail.
//
// A verdict is the direction the paper reports (adaptive above the OS, the
// OS steals the most, misses grow with selectivity), decided by the
// measured cells alone. The paper's magnitude is recorded beside it and is
// never a threshold.

#include <string>
#include <vector>

namespace elastic::bench {

/// How a claim's cells decide it. Every rule is strict: a tie fails.
enum class Rule {
  kFirstAbove,  ///< cells[0] above every other cell
  kFirstBelow,  ///< cells[0] below every other cell
  kRising,      ///< each cell above the one before it
};

inline const char* RuleName(Rule rule) {
  switch (rule) {
    case Rule::kFirstAbove: return "first_above";
    case Rule::kFirstBelow: return "first_below";
    case Rule::kRising: return "rising";
  }
  return "";
}

struct Claim {
  std::string figure;  ///< "Fig. 4" ... "Fig. 20", or "Ablation"
  std::string text;    ///< the claim, naming its cells in order
  Rule rule = Rule::kFirstAbove;
  std::vector<double> cells;
  std::string paper;  ///< the paper's magnitude, or "direction only"
};

/// The verdict: whether the cells show the direction the paper reports.
inline bool Holds(const Claim& claim) {
  const std::vector<double>& c = claim.cells;
  if (c.size() < 2) return false;
  for (size_t i = 1; i < c.size(); ++i) {
    const bool ok = claim.rule == Rule::kFirstAbove   ? c[0] > c[i]
                    : claim.rule == Rule::kFirstBelow ? c[0] < c[i]
                                                      : c[i] > c[i - 1];
    if (!ok) return false;
  }
  return true;
}

}  // namespace elastic::bench

#endif  // ELASTICORE_BENCH_PAPER_CLAIMS_H_
