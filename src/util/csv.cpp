#include "util/csv.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/strings.h"

namespace tsufail {
namespace {

/// Index of the first of the four bytes at or after `pos`, or npos — a
/// std::string_view::find_first_of without its per-byte memchr over the
/// set.  Pass a repeated byte to search for fewer than four.
std::size_t find_any_of4(std::string_view text, char c0, char c1, char c2, char c3,
                         std::size_t pos) noexcept {
  for (std::size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (c == c0 || c == c1 || c == c2 || c == c3) return i;
  }
  return std::string_view::npos;
}

/// Incremental RFC-4180 tokenizer over the whole document.
///
/// Structural characters (delimiter, CR, LF, quote) are located with
/// find_any_of4, and the ordinary bytes between them are bulk-appended —
/// the state machine only steps once per structural character instead of
/// once per byte.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  bool at_end() const noexcept { return pos_ >= text_.size(); }
  std::size_t line() const noexcept { return line_; }

  /// Parses one record (one logical row, possibly spanning physical lines
  /// inside quotes). Returns an empty optional-like flag via `record.fields`
  /// being empty AND at_end() for trailing blank content.
  Result<CsvRecord> next_record() {
    CsvRecord record;
    record.line_number = line_;
    std::string field;
    bool in_quotes = false;
    bool field_was_quoted = false;

    while (true) {
      if (at_end()) {
        if (in_quotes)
          return Error(ErrorKind::kParse,
                       "unterminated quoted field starting near line " + std::to_string(record.line_number));
        record.fields.push_back(std::move(field));
        return record;
      }
      if (in_quotes) {
        // Inside quotes only '"' and '\n' matter (the latter for line
        // accounting); everything before the next one is field content.
        const std::size_t hit = find_any_of4(text_, '"', '\n', '"', '\n', pos_);
        if (hit == std::string_view::npos) {
          pos_ = text_.size();
          return Error(ErrorKind::kParse,
                       "unterminated quoted field starting near line " + std::to_string(record.line_number));
        }
        field.append(text_, pos_, hit - pos_);
        pos_ = hit + 1;
        if (text_[hit] == '"') {
          if (!at_end() && text_[pos_] == '"') {  // escaped quote
            field += '"';
            ++pos_;
          } else {
            in_quotes = false;
          }
        } else {  // '\n' inside a quoted field stays in the value
          ++line_;
          field += '\n';
        }
        continue;
      }
      const std::size_t hit = find_any_of4(text_, ',', '\r', '\n', '"', pos_);
      if (hit == std::string_view::npos) {
        field.append(text_, pos_, text_.size() - pos_);
        pos_ = text_.size();
        continue;  // the at_end() branch closes out the record
      }
      field.append(text_, pos_, hit - pos_);
      pos_ = hit + 1;
      switch (text_[hit]) {
        case ',':
          record.fields.push_back(std::move(field));
          field.clear();
          field_was_quoted = false;
          break;
        case '\r':
          if (!at_end() && text_[pos_] == '\n') ++pos_;
          [[fallthrough]];
        case '\n':
          ++line_;
          record.fields.push_back(std::move(field));
          return record;
        case '"':
          if (!field.empty() || field_was_quoted)
            return Error(ErrorKind::kParse, "stray quote in field on line " + std::to_string(line_));
          in_quotes = true;
          field_was_quoted = true;
          break;
      }
    }
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

bool is_blank_record(const CsvRecord& record) {
  return record.fields.size() == 1 && trim(record.fields[0]).empty();
}

}  // namespace

Result<CsvDocument> CsvDocument::parse(std::string_view text) {
  // Spreadsheet exports routinely prepend a UTF-8 byte-order mark; left
  // in place it would glue itself onto the first header name and break
  // column lookup.
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (text.substr(0, kUtf8Bom.size()) == kUtf8Bom) text.remove_prefix(kUtf8Bom.size());
  Tokenizer tokenizer(text);
  CsvDocument doc;
  bool have_header = false;
  while (!tokenizer.at_end()) {
    auto record = tokenizer.next_record();
    if (!record.ok()) return record.error();
    if (is_blank_record(record.value())) continue;  // skip blank lines anywhere
    if (!have_header) {
      doc.header_ = std::move(record.value().fields);
      have_header = true;
    } else {
      doc.records_.push_back(std::move(record.value()));
    }
  }
  if (!have_header)
    return Error(ErrorKind::kParse, "CSV document is empty (no header row)");
  return doc;
}

Result<CsvDocument> CsvDocument::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Error(ErrorKind::kIo, "cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    return Error(ErrorKind::kIo, "read error on file: " + path);
  auto doc = parse(buffer.str());
  if (!doc.ok()) return doc.error().with_context(path);
  return doc;
}

Result<std::size_t> CsvDocument::column(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (iequals(trim(header_[i]), trim(name))) return i;
  }
  return Error(ErrorKind::kNotFound, "no such column: '" + std::string(name) + "'");
}

Result<std::string> CsvDocument::field(const CsvRecord& record, std::string_view column_name) const {
  auto index = column(column_name);
  if (!index.ok()) return index.error();
  if (index.value() >= record.fields.size())
    return Error(ErrorKind::kValidation,
                 "row on line " + std::to_string(record.line_number) + " has " +
                     std::to_string(record.fields.size()) + " fields; column '" +
                     std::string(column_name) + "' is index " + std::to_string(index.value()));
  return record.fields[index.value()];
}

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

Result<void> write_csv_file(const std::string& path, const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    return Error(ErrorKind::kIo, "cannot open file for writing: " + path);
  CsvWriter writer(out);
  writer.write_row(header);
  for (const auto& row : rows) writer.write_row(row);
  out.flush();
  if (!out)
    return Error(ErrorKind::kIo, "write error on file: " + path);
  return {};
}

}  // namespace tsufail
