#include "eval/reporting.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace isum::eval {

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::AddRow(const std::string& label, const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(StrFormat("%.2f", v));
  AddRow(std::move(cells));
}

std::string Table::ToString(bool csv) const {
  std::string out;
  if (csv) {
    out += Join(headers_, ",") + "\n";
    for (const auto& row : rows_) out += Join(row, ",") + "\n";
    return out;
  }
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(widths[c] - row[c].size() + 2, ' ');
    }
    out += "\n";
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out.append(total, '-');
  out += "\n";
  for (const auto& row : rows_) emit_row(row);
  return out;
}

void Table::Print(const std::string& title, bool csv) const {
  // Print() is the bench/example output sink; stdout is its documented
  // contract, so the stdio ban is waived here.
  std::printf("\n=== %s ===\n%s", title.c_str(),  // NOLINT(isum-no-stdio)
              ToString(csv).c_str());
  std::fflush(stdout);
}

}  // namespace isum::eval
