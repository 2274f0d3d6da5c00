#include "util/csv.h"

#include <array>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "util/strings.h"

namespace tsufail {
namespace {

/// The bytes that end an unquoted field: delimiter, CR, LF and quote.
constexpr std::array<bool, 256> kStructural = [] {
  std::array<bool, 256> table{};
  for (const unsigned char c : {',', '\r', '\n', '"'}) table[c] = true;
  return table;
}();

/// Index of the first structural byte at or after `pos`, or text.size().
std::size_t scan_unquoted(std::string_view text, std::size_t pos) noexcept {
  while (pos < text.size() && !kStructural[static_cast<unsigned char>(text[pos])]) ++pos;
  return pos;
}

}  // namespace

bool CsvRecord::blank() const noexcept { return fields.size() == 1 && trim(fields[0]).empty(); }

std::string_view strip_utf8_bom(std::string_view text) noexcept {
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (text.substr(0, kUtf8Bom.size()) == kUtf8Bom) text.remove_prefix(kUtf8Bom.size());
  return text;
}

Result<std::string> read_file_bytes(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(ErrorKind::kIo, "cannot open " + std::string(what) + ": " + path);
  // Size the buffer from the file and read straight into it; whatever the
  // size did not cover (a pipe, a file still growing) is appended after.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::string bytes(ec ? 0 : size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  if (in.bad()) return Error(ErrorKind::kIo, "read error on " + std::string(what) + ": " + path);
  return bytes;
}

CsvStep CsvCursor::next_field(std::string_view& field, std::string& scratch) {
  if (!in_record_) {
    in_record_ = true;
    record_line_ = line_;
  }
  const std::size_t end = scan_unquoted(text_, pos_);
  if (end < text_.size() && text_[end] == '"') {
    if (end != pos_) return fail(Fault::kStrayQuote, line_);
    return quoted_field(end, field, scratch);
  }
  field = text_.substr(pos_, end - pos_);
  return end_field(end);
}

CsvStep CsvCursor::quoted_field(std::size_t open, std::string_view& field, std::string& scratch) {
  // The value is one slice of the document unless a "" escape or text
  // after the closing quote forces a copy into `scratch`.
  bool copied = false;
  std::size_t start = open + 1;
  std::size_t pos = start;
  while (true) {
    while (pos < text_.size() && text_[pos] != '"') {
      if (text_[pos] == '\n') ++line_;
      ++pos;
    }
    if (pos >= text_.size()) {
      pos_ = text_.size();
      return fail(Fault::kUnterminatedQuote, record_line_);
    }
    if (pos + 1 >= text_.size() || text_[pos + 1] != '"') break;  // closing quote
    if (!copied) scratch.clear();
    scratch.append(text_, start, pos + 1 - start);  // through the first quote of the pair
    copied = true;
    pos += 2;
    start = pos;
  }
  std::string_view value = text_.substr(start, pos - start);
  const std::size_t after = pos + 1;
  const std::size_t end = scan_unquoted(text_, after);
  if (end < text_.size() && text_[end] == '"') return fail(Fault::kStrayQuote, line_);
  if (copied || end != after) {
    if (!copied) scratch.clear();
    scratch.append(value);
    scratch.append(text_, after, end - after);
    value = scratch;
  }
  field = value;
  return end_field(end);
}

CsvStep CsvCursor::end_field(std::size_t end) {
  if (end >= text_.size()) {
    pos_ = text_.size();
    in_record_ = false;
    return CsvStep::kLastField;
  }
  const char c = text_[end];
  pos_ = end + 1;
  if (c == ',') return CsvStep::kField;
  if (c == '\r' && pos_ < text_.size() && text_[pos_] == '\n') ++pos_;
  ++line_;
  in_record_ = false;
  return CsvStep::kLastField;
}

CsvStep CsvCursor::fail(Fault fault, std::size_t line) {
  fault_ = fault;
  fault_line_ = line;
  return CsvStep::kFault;
}

bool CsvCursor::read_record(CsvRecord& record) {
  record.fields.clear();
  record.line_number = line_;
  std::string scratch;
  std::string_view field;
  CsvStep step;
  do {
    step = next_field(field, scratch);
    if (step == CsvStep::kFault) return false;
    record.fields.emplace_back(field);
  } while (step == CsvStep::kField);
  return true;
}

Error CsvCursor::error() const {
  if (fault_ == Fault::kUnterminatedQuote)
    return Error(ErrorKind::kParse,
                 "unterminated quoted field starting near line " + std::to_string(fault_line_));
  return Error(ErrorKind::kParse, "stray quote in field on line " + std::to_string(fault_line_));
}

Result<CsvDocument> CsvDocument::parse(std::string_view text) {
  CsvCursor cursor(strip_utf8_bom(text));
  CsvDocument doc;
  bool have_header = false;
  CsvRecord record;
  while (!cursor.at_end()) {
    if (!cursor.read_record(record)) return cursor.error();
    if (record.blank()) continue;  // skip blank lines anywhere
    if (!have_header) {
      doc.header_ = std::move(record.fields);
      have_header = true;
    } else {
      doc.records_.push_back(std::move(record));
    }
  }
  if (!have_header)
    return Error(ErrorKind::kParse, "CSV document is empty (no header row)");
  return doc;
}

Result<CsvDocument> CsvDocument::read_file(const std::string& path) {
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.error();
  auto doc = parse(bytes.value());
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
