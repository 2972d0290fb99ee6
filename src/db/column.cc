#include "db/column.h"

#include <limits>

#include "simcore/check.h"

namespace elastic::db {

void StringHeap::Reserve(size_t rows, size_t bytes) {
  offsets_.reserve(offsets_.size() + rows);
  heap_.reserve(heap_.size() + bytes);
}

void StringHeap::Append(std::string_view value) {
  ELASTIC_CHECK(value.size() <= std::numeric_limits<uint32_t>::max() -
                                    heap_.size(),
                "string heap offset would wrap past 4 GiB");
  heap_.append(value);
  offsets_.push_back(static_cast<uint32_t>(heap_.size()));
}

const Column& Table::col(const std::string& column) const {
  auto it = columns.find(column);
  ELASTIC_CHECK(it != columns.end(), "unknown column");
  return it->second;
}

Column& Table::col(const std::string& column) {
  auto it = columns.find(column);
  ELASTIC_CHECK(it != columns.end(), "unknown column");
  return it->second;
}

const std::vector<int64_t>& Table::i64(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kI64, "column is not i64");
  return c.i64;
}

const std::vector<double>& Table::f64(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kF64, "column is not f64");
  return c.f64;
}

const StringHeap& Table::str(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kStr, "column is not str");
  return c.str;
}

const CodedStrings& Table::coded(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kCoded, "column is not coded");
  return c.coded;
}

const Table& Database::table(const std::string& name) const {
  if (name == "region") return region;
  if (name == "nation") return nation;
  if (name == "supplier") return supplier;
  if (name == "customer") return customer;
  if (name == "part") return part;
  if (name == "partsupp") return partsupp;
  if (name == "orders") return orders;
  if (name == "lineitem") return lineitem;
  ELASTIC_CHECK(false, "unknown table");
  return region;
}

std::vector<const Table*> Database::AllTables() const {
  return {&region, &nation, &supplier, &customer,
          &part,   &partsupp, &orders, &lineitem};
}

}  // namespace elastic::db
