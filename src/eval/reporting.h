#ifndef ISUM_EVAL_REPORTING_H_
#define ISUM_EVAL_REPORTING_H_

#include <string>
#include <vector>

namespace isum::eval {

/// Small aligned-table printer for bench output (with optional CSV mode so
/// results can be piped into plotting scripts).
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Adds a row; pads/truncates to the header count.
  void AddRow(std::vector<std::string> cells);

  /// Convenience for mixed numeric rows: formats doubles with %.2f.
  void AddRow(const std::string& label, const std::vector<double>& values);

  /// Renders aligned columns (or comma-separated when `csv`).
  std::string ToString(bool csv = false) const;

  /// Prints to stdout, preceded by `title` as a section heading.
  void Print(const std::string& title, bool csv = false) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace isum::eval

#endif  // ISUM_EVAL_REPORTING_H_
