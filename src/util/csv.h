// RFC-4180 CSV reading and writing.
//
// Failure logs are exchanged as CSV (the Zenodo artifact format).  The
// reader is tolerant of the realities of operator-maintained spreadsheets:
// CRLF and LF line endings, quoted fields with embedded commas/newlines,
// and trailing blank lines.  Structural problems are reported per record
// via Result so one bad row cannot poison a 900-row log.
//
// CsvCursor is the one tokenizer.  It hands out each field as a view into
// the document, so a reader that only needs a few columns (the log reader,
// data/log_io.h) parses a file without a string per field; CsvDocument is
// the materializing loop over the same cursor for callers that want every
// field as a std::string.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace tsufail {

/// `text` without a leading UTF-8 byte-order mark.  Spreadsheet exports
/// routinely prepend one; left in place it would glue itself onto the
/// first header name.  Only a leading mark is dropped.
std::string_view strip_utf8_bom(std::string_view text) noexcept;

/// Reads a whole file into one string sized from the file.  Errors (kIo)
/// name the file as `what` ("cannot open <what>: <path>").
Result<std::string> read_file_bytes(const std::string& path, std::string_view what = "file");

/// One parsed CSV record (row) with its 1-based source line number.
struct CsvRecord {
  std::vector<std::string> fields;
  std::size_t line_number = 0;

  /// A blank line: one field holding only whitespace.  Readers skip these
  /// anywhere in a document.
  bool blank() const noexcept;
};

/// What CsvCursor::next_field read.
enum class CsvStep {
  kField,      ///< a field; more follow in the same record
  kLastField,  ///< a field that closed its record
  kFault,      ///< a structural error (CsvCursor::fault()); stop reading
};

/// RFC-4180 cursor over an in-memory document, one field at a time.
///
/// Records end at LF, CRLF or a lone CR outside quotes; a quoted field may
/// hold commas, CR, LF and "" escapes, and text after its closing quote is
/// appended to it.  A quote inside an unquoted field, or after a closing
/// quote, is a stray quote.  Line numbers count LF, CRLF and lone CR
/// outside quotes and LF inside them.  A blank line is read as a record of
/// one empty (or all-whitespace) field; skipping it is the caller's choice.
class CsvCursor {
 public:
  enum class Fault { kNone, kStrayQuote, kUnterminatedQuote };

  explicit CsvCursor(std::string_view text) noexcept : text_(text) {}

  /// True once no record is left.  Meaningful between records.
  bool at_end() const noexcept { return pos_ >= text_.size(); }

  /// 1-based line the cursor stands on; between records, the line the
  /// next record starts on.
  std::size_t line() const noexcept { return line_; }

  /// Reads the next field of the current record.  `field` views its value:
  /// a slice of the document, or `scratch` when the value had to be
  /// unescaped ("" pairs, text after a closing quote).  The view lives as
  /// long as the document and `scratch` are left alone, so a caller that
  /// keeps several fields of one record passes each its own scratch.
  CsvStep next_field(std::string_view& field, std::string& scratch);

  /// Reads the next whole record, copying every field out.  False on a
  /// fault.
  bool read_record(CsvRecord& record);

  Fault fault() const noexcept { return fault_; }

  /// The fault as a kParse error naming its line: "stray quote in field
  /// on line N" or "unterminated quoted field starting near line N" (the
  /// line its record starts on).
  Error error() const;

 private:
  CsvStep quoted_field(std::size_t open, std::string_view& field, std::string& scratch);
  CsvStep end_field(std::size_t end);
  CsvStep fail(Fault fault, std::size_t line);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t record_line_ = 1;  ///< line the current record started on
  bool in_record_ = false;
  Fault fault_ = Fault::kNone;
  std::size_t fault_line_ = 0;
};

/// A fully parsed CSV document: a header row plus data records.
class CsvDocument {
 public:
  /// Parses an in-memory CSV document.  The first non-blank record is the
  /// header; blank lines are skipped anywhere; a leading UTF-8 BOM is
  /// dropped.  Errors: empty input, unterminated quote, stray quote.
  static Result<CsvDocument> parse(std::string_view text);

  /// Reads and parses a CSV file from disk.
  static Result<CsvDocument> read_file(const std::string& path);

  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<CsvRecord>& records() const noexcept { return records_; }

  /// Column index for `name` (case-insensitive), or kNotFound error.
  Result<std::size_t> column(std::string_view name) const;

  /// Field `column_name` of `record`, or an error naming the row/column.
  Result<std::string> field(const CsvRecord& record, std::string_view column_name) const;

 private:
  std::vector<std::string> header_;
  std::vector<CsvRecord> records_;
};

/// Streaming CSV writer with RFC-4180 quoting.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Writes one row; fields containing ',' '"' '\n' or '\r' are quoted.
  void write_row(const std::vector<std::string>& fields);

  /// Quotes a single field if needed (exposed for tests).
  static std::string escape(std::string_view field);

 private:
  std::ostream& out_;
};

/// Writes an entire document (header + rows) to a file.
Result<void> write_csv_file(const std::string& path, const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows);

}  // namespace tsufail
