#include "data/log_io.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "obs/obs.h"
#include "util/csv.h"
#include "util/strings.h"

namespace tsufail::data {
namespace {

/// The canonical columns, in the order write_log_csv emits them and in
/// the order a row's fields are parsed (and so its errors reported).
enum Column : std::size_t {
  kMachine,
  kTimestamp,
  kNode,
  kCategory,
  kTtrHours,
  kGpuSlots,
  kRootLocus,
  kColumnCount,
};

constexpr const char* kColumns[kColumnCount] = {"machine",   "timestamp", "node",      "category",
                                                "ttr_hours", "gpu_slots", "root_locus"};

/// Generated/operator logs can record repairs finishing past the window;
/// rows are validated with two weeks of slack on the window check.
constexpr double kSlackHours = 24.0 * 14;

/// The canonical fields of one data row, as views into the document (or
/// into a scratch string when a field had to be unescaped).
struct RowFields {
  std::array<std::string_view, kColumnCount> text{};
  std::array<std::size_t, kColumnCount> index{};  ///< position of each on the row
  std::size_t count = 0;                          ///< fields on the row
  std::size_t line = 0;

  bool has(Column column) const noexcept { return index[column] < count; }

  Error missing(Column column) const {
    return Error(ErrorKind::kValidation,
                 "row on line " + std::to_string(line) + " has " + std::to_string(count) +
                     " fields; column '" + kColumns[column] + "' is index " +
                     std::to_string(index[column]));
  }
};

/// Parses the canonical fields into `record` and returns the machine the
/// row declares, so the caller can enforce uniformity.  Fields are taken
/// in canonical order; a row too short to hold one fails when its turn
/// comes, after any error in an earlier field.
Result<Machine> parse_fields(const RowFields& row, FailureRecord& record) {
  if (!row.has(kMachine)) return row.missing(kMachine);
  auto machine = parse_machine(row.text[kMachine]);
  if (!machine.ok()) return machine.error();

  if (!row.has(kTimestamp)) return row.missing(kTimestamp);
  auto time = parse_time(trim(row.text[kTimestamp]));
  if (!time.ok()) return time.error();
  record.time = time.value();

  if (!row.has(kNode)) return row.missing(kNode);
  auto node = parse_int(trim(row.text[kNode]));
  if (!node.ok()) return node.error().with_context("node");
  record.node = static_cast<int>(node.value());

  if (!row.has(kCategory)) return row.missing(kCategory);
  auto category = parse_category(row.text[kCategory]);
  if (!category.ok()) return category.error();
  record.category = category.value();

  if (!row.has(kTtrHours)) return row.missing(kTtrHours);
  auto ttr = parse_double(trim(row.text[kTtrHours]));
  if (!ttr.ok()) return ttr.error().with_context("ttr_hours");
  record.ttr_hours = ttr.value();

  if (!row.has(kGpuSlots)) return row.missing(kGpuSlots);
  auto slots = parse_gpu_slots(row.text[kGpuSlots]);
  if (!slots.ok()) return slots.error();
  record.gpu_slots = std::move(slots).value();

  if (!row.has(kRootLocus)) return row.missing(kRootLocus);
  record.root_locus = trim(row.text[kRootLocus]);

  return machine.value();
}

/// The reader behind read_log_csv and read_log_file: one pass of the CSV
/// cursor over the text, each row parsed from views and validated once.
///
/// Error precedence is the document's, not the pass's: a structural CSV
/// error anywhere in the text wins over a missing column, which wins over
/// the first bad row under the strict policy.  So once such an error is
/// pending, the rest of the text is only tokenized.
Result<ReadReport> read_log(std::string_view text, ReadPolicy policy) {
  CsvCursor cursor(strip_utf8_bom(text));

  CsvRecord header;
  do {
    if (cursor.at_end()) return Error(ErrorKind::kParse, "CSV document is empty (no header row)");
    if (!cursor.read_record(header)) return cursor.error();
  } while (header.blank());

  // Resolve each canonical column once: the first header name equal to it,
  // trimmed and ignoring case.  slot_of[i] is the canonical column at
  // position i, or kColumnCount for a column the reader does not use.
  std::optional<Error> pending;
  RowFields row;
  std::vector<std::size_t> slot_of(header.fields.size(), kColumnCount);
  for (std::size_t column = 0; column < kColumnCount; ++column) {
    std::size_t i = 0;
    while (i < header.fields.size() && !iequals(trim(header.fields[i]), kColumns[column])) ++i;
    if (i == header.fields.size()) {
      if (!pending.has_value())
        pending = Error(ErrorKind::kValidation, "log CSV is missing required column '" +
                                                    std::string(kColumns[column]) + "'");
      continue;
    }
    row.index[column] = i;
    slot_of[i] = column;
  }

  std::vector<FailureRecord> records;
  records.reserve(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  std::vector<RowError> row_errors;
  std::optional<Machine> machine;
  std::array<std::string, kColumnCount + 1> scratch;  // one per slot, plus one for the rest

  while (!cursor.at_end()) {
    row.line = cursor.line();
    row.count = 0;
    std::string_view first;
    CsvStep step;
    do {
      const std::size_t slot = row.count < slot_of.size() ? slot_of[row.count] : kColumnCount;
      std::string_view field;
      step = cursor.next_field(field, scratch[slot]);
      if (step == CsvStep::kFault) return cursor.error();
      if (slot < kColumnCount) row.text[slot] = field;
      if (row.count == 0) first = field;
      ++row.count;
    } while (step == CsvStep::kField);
    if (row.count == 1 && trim(first).empty()) continue;  // blank line (CsvRecord::blank)
    if (pending.has_value()) continue;

    FailureRecord record;
    auto parsed = parse_fields(row, record);
    std::optional<Error> rejected;
    if (!parsed.ok()) {
      rejected = parsed.error();
    } else if (!machine.has_value()) {
      machine = parsed.value();
    } else if (*machine != parsed.value()) {
      rejected = Error(ErrorKind::kValidation, "mixed machines in one log file");
    }
    // Semantic validation per row, so one bad record is skippable under
    // the lenient policy instead of poisoning the whole load.
    if (!rejected.has_value()) {
      if (auto valid = validate_record(record, spec_for(parsed.value()), kSlackHours); !valid.ok())
        rejected = valid.error();
    }
    if (rejected.has_value()) {
      if (policy == ReadPolicy::kStrict)
        pending = rejected->with_context("line " + std::to_string(row.line));
      else
        row_errors.push_back({row.line, rejected->to_string()});
      continue;
    }
    records.push_back(std::move(record));
  }

  if (pending.has_value()) return *pending;
  if (!machine.has_value())
    return Error(ErrorKind::kValidation, "log CSV contains no parsable data rows");
  // Every record passed validate_record against this spec with the same
  // slack above, so the log is adopted as is once it is in time order.
  sort_by_time(records);
  return ReadReport{FailureLog::from_sorted(spec_for(*machine), std::move(records)),
                    std::move(row_errors)};
}

std::string format_ttr(double ttr_hours) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", ttr_hours);
  return buf;
}

}  // namespace

Result<std::pair<Machine, FailureRecord>> parse_record_row(std::string_view row) {
  if (!row.empty() && row.back() == '\r') row.remove_suffix(1);
  if (row.find_first_of("\r\n") != std::string_view::npos)
    return Error(ErrorKind::kParse, "line break inside row");
  CsvCursor cursor(row);
  RowFields fields;
  for (std::size_t column = 0; column < kColumnCount; ++column) fields.index[column] = column;
  std::array<std::string, kColumnCount + 1> scratch;
  CsvStep step;
  do {
    const std::size_t slot = std::min<std::size_t>(fields.count, kColumnCount);
    std::string_view field;
    step = cursor.next_field(field, scratch[slot]);
    if (step == CsvStep::kFault)
      return Error(ErrorKind::kParse, cursor.fault() == CsvCursor::Fault::kStrayQuote
                                          ? "stray quote in unquoted field"
                                          : "unterminated quote");
    if (slot < kColumnCount) fields.text[slot] = field;
    ++fields.count;
  } while (step == CsvStep::kField);
  if (fields.count != kColumnCount)
    return Error(ErrorKind::kParse, "expected " + std::to_string(kColumnCount) + " fields, got " +
                                        std::to_string(fields.count));
  FailureRecord record;
  auto machine = parse_fields(fields, record);
  if (!machine.ok()) return machine.error();
  return std::pair<Machine, FailureRecord>(machine.value(), std::move(record));
}

std::string format_gpu_slots(const std::vector<int>& slots) {
  std::string out;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i != 0) out += '|';
    out += std::to_string(slots[i]);
  }
  return out;
}

Result<std::vector<int>> parse_gpu_slots(std::string_view text) {
  std::vector<int> slots;
  text = trim(text);
  if (text.empty()) return slots;
  while (true) {
    const std::size_t bar = text.find('|');
    auto value = parse_int(trim(text.substr(0, bar)));
    if (!value.ok()) return value.error().with_context("gpu_slots");
    slots.push_back(static_cast<int>(value.value()));
    if (bar == std::string_view::npos) return slots;
    text.remove_prefix(bar + 1);
  }
}

Result<ReadReport> read_log_csv(std::string_view text, ReadPolicy policy) {
  OBS_SPAN("csv.read_log");
  return read_log(text, policy);
}

Result<ReadReport> read_log_file(const std::string& path, ReadPolicy policy) {
  OBS_SPAN("csv.read_log");
  auto bytes = read_file_bytes(path, "log file");
  if (!bytes.ok()) return bytes.error();
  auto report = read_log(bytes.value(), policy);
  if (!report.ok()) return report.error().with_context(path);
  return report;
}

std::string write_log_csv(const FailureLog& log) {
  std::ostringstream out;
  CsvWriter writer(out);
  std::vector<std::string> row(std::begin(kColumns), std::end(kColumns));
  writer.write_row(row);
  const std::string machine_name(to_string(log.machine()));
  for (const auto& record : log.records()) {
    row[0] = machine_name;
    row[1] = format_time(record.time);
    row[2] = std::to_string(record.node);
    row[3] = std::string(to_string(record.category));
    row[4] = format_ttr(record.ttr_hours);
    row[5] = format_gpu_slots(record.gpu_slots);
    row[6] = record.root_locus;
    writer.write_row(row);
  }
  return out.str();
}

Result<void> write_log_file(const std::string& path, const FailureLog& log) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    return Error(ErrorKind::kIo, "cannot open log file for writing: " + path);
  out << write_log_csv(log);
  out.flush();
  if (!out)
    return Error(ErrorKind::kIo, "write error on log file: " + path);
  return {};
}

}  // namespace tsufail::data
