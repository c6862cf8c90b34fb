#ifndef CHARLES_CSV_CSV_READER_H_
#define CHARLES_CSV_CSV_READER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace charles {

/// \brief Options controlling CSV parsing.
struct CsvReadOptions {
  char delimiter = ',';
  char quote = '"';
  /// First record is a header of column names. Without a header, columns are
  /// named f0, f1, ...
  bool has_header = true;
  /// Cell spellings (post-trim) treated as NULL.
  std::vector<std::string> null_tokens = {"", "NULL", "null", "NA", "N/A"};
  /// Trim ASCII whitespace around unquoted cells before interpretation.
  bool trim_cells = true;
  /// When true (default), column types are inferred by scanning all rows:
  /// int64 if every non-NULL cell parses as int64, else double if every cell
  /// parses as double, else bool, else string. A column whose cells are all
  /// numbers except for non-finite ones ("nan", "inf", "-inf") fails the
  /// read with InvalidArgument naming the record, the column and the cell.
  /// When false, all columns are string.
  bool infer_types = true;
};

/// \brief RFC-4180-style CSV parser producing a typed Table.
///
/// Handles quoted fields, embedded delimiters/newlines/escaped quotes ("" ->
/// "), and both \n and \r\n record separators. Ragged rows are an error
/// (Invalid argument with the offending 1-based record number).
class CsvReader {
 public:
  /// Parses an in-memory CSV document.
  static Result<Table> ReadString(std::string_view text, const CsvReadOptions& options = {});

  /// Reads and parses a file.
  static Result<Table> ReadFile(const std::string& path, const CsvReadOptions& options = {});

  /// Lower-level: the raw cell grid (no typing), exposed for tooling/tests.
  static Result<std::vector<std::vector<std::string>>> ParseRecords(
      std::string_view text, const CsvReadOptions& options);
};

}  // namespace charles

#endif  // CHARLES_CSV_CSV_READER_H_
