// Every verdict in the committed BENCH_paper_claims.json is Holds() of its
// measured cells, and every one can fail: ordered the way the paper reports,
// a claim's own cells make it hold; reversed, or tied, they make it fail.
// The file is read line by line, one claim per line as bench/paper_claims
// writes it, so a claim added there is checked here once the file is
// regenerated.

#include "bench/paper_claims.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace elastic::bench {
namespace {

struct Recorded {
  Claim claim;
  bool holds = false;
};

std::vector<Recorded> ReadClaims(size_t* total) {
  std::ifstream in(std::string(ELASTICORE_SOURCE_DIR) +
                   "/BENCH_paper_claims.json");
  const std::regex claim_re(
      R"re(^    "(Fig\. \d+|Ablation): [^"]+": \{"figure": "[^"]+", )re"
      R"re("rule": "(\w+)", "measured": \[([^\]]*)\], "paper": "[^"]*", )re"
      R"re("holds": (true|false)\},?$)re");
  const std::regex total_re(R"re(^  "claims_total": (\d+)$)re");
  std::vector<Recorded> claims;
  std::smatch m;
  for (std::string line; std::getline(in, line);) {
    if (std::regex_match(line, m, total_re)) *total = std::stoul(m[1]);
    if (!std::regex_match(line, m, claim_re)) continue;
    Recorded r;
    r.claim.figure = m[1];
    r.holds = m[4] == "true";
    const std::string rule = m[2];
    bool known = false;
    for (Rule candidate : {Rule::kFirstAbove, Rule::kFirstBelow, Rule::kRising}) {
      if (rule == RuleName(candidate)) {
        r.claim.rule = candidate;
        known = true;
      }
    }
    EXPECT_TRUE(known) << line;
    std::istringstream cells(m[3].str());
    for (std::string cell; std::getline(cells, cell, ',');) {
      r.claim.cells.push_back(std::stod(cell));
    }
    claims.push_back(r);
  }
  return claims;
}

TEST(PaperClaimsTest, EveryVerdictIsHoldsOfItsCellsAndCanFail) {
  size_t total = 0;
  const std::vector<Recorded> claims = ReadClaims(&total);
  ASSERT_FALSE(claims.empty());
  EXPECT_EQ(claims.size(), total) << "a claim line did not parse";
  std::set<std::string> figures;
  for (const Recorded& r : claims) {
    SCOPED_TRACE(r.claim.figure + " " + RuleName(r.claim.rule));
    figures.insert(r.claim.figure);
    ASSERT_GE(r.claim.cells.size(), 2u);
    EXPECT_EQ(Holds(r.claim), r.holds);

    Claim ordered = r.claim;  // the way the paper reports
    std::sort(ordered.cells.begin(), ordered.cells.end());
    if (ordered.rule == Rule::kFirstAbove) {
      std::reverse(ordered.cells.begin(), ordered.cells.end());
    }
    EXPECT_TRUE(Holds(ordered));
    Claim reversed = ordered;
    std::reverse(reversed.cells.begin(), reversed.cells.end());
    EXPECT_FALSE(Holds(reversed));
    Claim tied = ordered;
    tied.cells[1] = tied.cells[0];
    EXPECT_FALSE(Holds(tied));
  }
  EXPECT_EQ(figures, (std::set<std::string>{
                         "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 13",
                         "Fig. 14", "Fig. 15", "Fig. 16", "Fig. 17",
                         "Fig. 18", "Fig. 19", "Fig. 20", "Ablation"}));
}

}  // namespace
}  // namespace elastic::bench
