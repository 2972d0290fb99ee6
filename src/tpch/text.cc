#include "tpch/text.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "simcore/check.h"

namespace elastic::tpch {

const std::vector<std::string>& TextPools::NameWords() {
  static const std::vector<std::string>* kWords = new std::vector<std::string>{
      "almond",    "antique",   "aquamarine", "azure",     "beige",
      "bisque",    "black",     "blanched",   "blue",      "blush",
      "brown",     "burlywood", "burnished",  "chartreuse", "chiffon",
      "chocolate", "coral",     "cornflower", "cornsilk",  "cream",
      "cyan",      "dark",      "deep",       "dim",       "dodger",
      "drab",      "firebrick", "floral",     "forest",    "frosted",
      "gainsboro", "ghost",     "goldenrod",  "green",     "grey",
      "honeydew",  "hot",       "hotpink",    "indian",    "ivory",
      "khaki",     "lace",      "lavender",   "lawn",      "lemon",
      "light",     "lime",      "linen",      "magenta",   "maroon",
      "medium",    "metallic",  "midnight",   "mint",      "misty",
      "moccasin",  "navajo",    "navy",       "olive",     "orange",
      "orchid",    "pale",      "papaya",     "peach",     "peru",
      "pink",      "plum",      "powder",     "puff",      "purple",
      "red",       "rose",      "rosy",       "royal",     "saddle",
      "salmon",    "sandy",     "seashell",   "sienna",    "sky",
      "slate",     "smoke",     "snow",       "spring",    "steel",
      "tan",       "thistle",   "tomato",     "turquoise", "violet",
      "wheat",     "white",     "yellow"};
  return *kWords;
}

const std::vector<std::string>& TextPools::TypeS1() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"};
  return *kPool;
}

const std::vector<std::string>& TextPools::TypeS2() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"};
  return *kPool;
}

const std::vector<std::string>& TextPools::TypeS3() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
  return *kPool;
}

const std::vector<std::string>& TextPools::ContainerS1() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "SM", "MED", "LG", "JUMBO", "WRAP"};
  return *kPool;
}

const std::vector<std::string>& TextPools::ContainerS2() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"};
  return *kPool;
}

const std::vector<std::string>& TextPools::Segments() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"};
  return *kPool;
}

const std::vector<std::string>& TextPools::Priorities() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};
  return *kPool;
}

const std::vector<std::string>& TextPools::ShipModes() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
  return *kPool;
}

const std::vector<std::string>& TextPools::ShipInstructs() {
  static const std::vector<std::string>* kPool = new std::vector<std::string>{
      "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"};
  return *kPool;
}

const std::vector<TextPools::NationSpec>& TextPools::Nations() {
  static const std::vector<NationSpec>* kNations = new std::vector<NationSpec>{
      {"ALGERIA", 0},       {"ARGENTINA", 1}, {"BRAZIL", 1},
      {"CANADA", 1},        {"EGYPT", 4},     {"ETHIOPIA", 0},
      {"FRANCE", 3},        {"GERMANY", 3},   {"INDIA", 2},
      {"INDONESIA", 2},     {"IRAN", 4},      {"IRAQ", 4},
      {"JAPAN", 2},         {"JORDAN", 4},    {"KENYA", 0},
      {"MOROCCO", 0},       {"MOZAMBIQUE", 0}, {"PERU", 1},
      {"CHINA", 2},         {"ROMANIA", 3},   {"SAUDI ARABIA", 4},
      {"VIETNAM", 2},       {"RUSSIA", 3},    {"UNITED KINGDOM", 3},
      {"UNITED STATES", 1}};
  return *kNations;
}

const std::vector<std::string>& TextPools::Regions() {
  static const std::vector<std::string>* kRegions = new std::vector<std::string>{
      "AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};
  return *kRegions;
}

const std::vector<std::string>& TextPools::CommentWords() {
  static const std::vector<std::string>* kWords = new std::vector<std::string>{
      "furiously", "quickly",  "carefully", "blithely",  "slyly",
      "regular",   "express",  "final",     "ironic",    "pending",
      "bold",      "even",     "silent",    "daring",    "unusual",
      "accounts",  "deposits", "packages",  "instructions", "foxes",
      "theodolites", "pinto",  "beans",     "dependencies", "platelets",
      "requests",  "ideas",    "asymptotes", "courts",   "dolphins",
      "sleep",     "wake",     "nag",       "haggle",    "boost",
      "integrate", "detect",   "cajole",    "engage",    "about",
      "above",     "across",   "after",     "against",   "along"};
  return *kWords;
}

namespace {

/// Most words one generated string holds (an 8-word comment).
constexpr int kMaxWords = 8;

using WordList = std::array<std::string_view, kMaxWords>;

/// Draws `count` words from `pool` into words[at, at + count), in order.
void DrawWords(simcore::Rng* rng, const std::vector<std::string>& pool,
               WordList* words, int at, int count) {
  ELASTIC_CHECK(at >= 0 && count >= 0 && at + count <= kMaxWords,
                "too many words for one generated string");
  for (int i = at; i < at + count; ++i) {
    (*words)[static_cast<size_t>(i)] = pool[rng->NextBounded(pool.size())];
  }
}

/// words[0, count) joined by single spaces, in one allocation of the exact
/// length (appending word by word regrows it through capacities 15, 30, 60).
std::string JoinWords(const WordList& words, int count) {
  if (count == 0) return {};
  size_t length = static_cast<size_t>(count - 1);
  for (int i = 0; i < count; ++i) length += words[static_cast<size_t>(i)].size();
  std::string out(length, ' ');
  char* at = out.data();
  for (int i = 0; i < count; ++i) {
    const std::string_view word = words[static_cast<size_t>(i)];
    std::memcpy(at, word.data(), word.size());
    at += word.size() + 1;
  }
  return out;
}

}  // namespace

std::string RandomComment(simcore::Rng* rng, int words) {
  WordList list;
  DrawWords(rng, TextPools::CommentWords(), &list, 0, words);
  return JoinWords(list, words);
}

// A planted comment draws each of its three word groups in its own
// statement, last group first. The pinned data (DbgenTest.ContentDigest)
// depends on that order, and within one `+` expression it would be left to
// the compiler: C++17 does not specify the order of operand evaluation.

std::string OrderComment(simcore::Rng* rng, double p) {
  const std::vector<std::string>& pool = TextPools::CommentWords();
  WordList list;
  if (rng->NextBernoulli(p)) {
    // "w0 w1 special w3 w4 requests w6"
    DrawWords(rng, pool, &list, 6, 1);
    DrawWords(rng, pool, &list, 3, 2);
    DrawWords(rng, pool, &list, 0, 2);
    list[2] = "special";
    list[5] = "requests";
    return JoinWords(list, 7);
  }
  DrawWords(rng, pool, &list, 0, 6);
  return JoinWords(list, 6);
}

std::string SupplierComment(simcore::Rng* rng, double p) {
  const std::vector<std::string>& pool = TextPools::CommentWords();
  WordList list;
  if (rng->NextBernoulli(p)) {
    // "w0 w1 Customer w3 Complaints w5"
    DrawWords(rng, pool, &list, 5, 1);
    DrawWords(rng, pool, &list, 3, 1);
    DrawWords(rng, pool, &list, 0, 2);
    list[2] = "Customer";
    list[4] = "Complaints";
    return JoinWords(list, 6);
  }
  DrawWords(rng, pool, &list, 0, 5);
  return JoinWords(list, 5);
}

std::string PartName(simcore::Rng* rng) {
  WordList list;
  DrawWords(rng, TextPools::NameWords(), &list, 0, 5);
  return JoinWords(list, 5);
}

std::string Phone(simcore::Rng* rng, int nationkey) {
  // One draw per statement, last group first: the pinned data depends on
  // this order, which would be unspecified among snprintf's arguments.
  const int last = static_cast<int>(rng->NextInRange(1000, 9999));
  const int middle = static_cast<int>(rng->NextInRange(100, 999));
  const int first = static_cast<int>(rng->NextInRange(100, 999));
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%02d-%03d-%03d-%04d", 10 + nationkey,
                first, middle, last);
  return buffer;
}

std::string Address(simcore::Rng* rng) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,";
  std::string out(static_cast<size_t>(rng->NextInRange(10, 30)), ' ');
  for (char& c : out) c = kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  return out;
}

}  // namespace elastic::tpch
