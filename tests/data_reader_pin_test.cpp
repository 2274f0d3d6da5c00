// Pins the CSV log reader's observable behaviour: the records it builds
// and the (line, message) row errors it reports, under both policies, for
// an adversarial corpus; the single-row serve parser on its own corpus;
// and write -> read round trips of large generated logs, in file order
// and with the rows shuffled.  The expectations were recorded from the
// two-stage reader (CsvDocument -> per-row parse -> FailureLog::create)
// before the single-pass reader replaced it, so any drift in records,
// error text, line numbers or precedence shows up here.  The one
// deliberate difference is marked where it is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/log_io.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "util/civil_time.h"
#include "util/rng.h"

namespace tsufail::data {
namespace {

std::string escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out += c;
    }
  }
  return out;
}

std::string show_ttr(double ttr_hours) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", ttr_hours);
  return buf;
}

std::string show_record(const FailureRecord& record) {
  return format_time(record.time) + "|" + std::to_string(record.node) + "|" +
         std::string(to_string(record.category)) + "|" + show_ttr(record.ttr_hours) + "|" +
         format_gpu_slots(record.gpu_slots) + "|" + escaped(record.root_locus);
}

/// Everything a reader result exposes, one item per line.
std::string dump(const Result<ReadReport>& result) {
  if (!result.ok()) return "error " + escaped(result.error().to_string()) + "\n";
  const auto& log = result.value().log;
  std::string out = "log " + std::string(to_string(log.machine())) + " " +
                    std::to_string(log.size()) + "\n";
  for (const auto& record : log.records()) out += "  " + show_record(record) + "\n";
  for (const auto& row_error : result.value().row_errors)
    out += "row " + std::to_string(row_error.line_number) + " " + escaped(row_error.message) +
           "\n";
  return out;
}

std::string dump(const Result<std::pair<Machine, FailureRecord>>& result) {
  if (!result.ok()) return "error " + escaped(result.error().to_string());
  return std::string(to_string(result.value().first)) + " " + show_record(result.value().second);
}

/// Prints `actual` as a C++ literal, so a deliberate behaviour change can
/// be re-pinned by pasting.
std::string as_literal(const std::string& actual) {
  std::string out = "\n";
  std::size_t start = 0;
  while (start < actual.size()) {
    const std::size_t end = actual.find('\n', start);
    const std::string line = actual.substr(start, end - start);
    out += "      \"";
    for (const char c : line) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += end == std::string::npos ? "\"\n" : "\\n\"\n";
    start = end == std::string::npos ? actual.size() : end + 1;
  }
  return out;
}

constexpr const char* kHeader = "machine,timestamp,node,category,ttr_hours,gpu_slots,root_locus\n";

struct PinCase {
  const char* name;
  std::string csv;
  std::string lenient;
  std::string strict;
};

std::vector<PinCase> corpus() {
  const std::string h = kHeader;
  return {
      {"quoted_root_locus",
       h + "Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2,\"disk, then \"\"fan\"\"\nfailed\"\n"
           "Tsubame-2,2012-06-02 11:00:00,6,PBS,2.0,,plain\n"
           "Tsubame-2,2012-06-03 11:00:00,7,Nope,2.0,,\"x\ny\"\n"
           "Tsubame-2,2012-06-04 11:00:00,7000,PBS,2.0,,after\n"
           "\"Tsubame-2\",\"2012-06-05 12:00:00\",\"8\",\"Memory\",\"1.5\",\"\",\"ab\"cd\n"
           "Tsubame-2,2012-06-06 12:00:00,9,GPU,1.0,\"1\",\"\"\n"
           "Tsubame-2,2012-06-07 12:00:00,9,GPU,1.0,\"1\",\"  padded, \"\"q\"\"  \"\n",
       "log Tsubame-2 5\n"
       "  2012-06-01 10:00:00|5|GPU|20.5|0|2|disk, then \"fan\"\\nfailed\n"
       "  2012-06-02 11:00:00|6|PBS|2||plain\n"
       "  2012-06-05 12:00:00|8|Memory|1.5||abcd\n"
       "  2012-06-06 12:00:00|9|GPU|1|1|\n"
       "  2012-06-07 12:00:00|9|GPU|1|1|padded, \"q\"\n"
       "row 5 not-found: unknown failure category: 'Nope'\n"
       "row 7 validation: node index 7000 outside [0, 1408)\n",
       "error not-found: line 5: unknown failure category: 'Nope'\n"},
      {"crlf_bom_blank_lines",
       std::string("\xEF\xBB\xBF") +
           "\r\n"
           "machine,timestamp,node,category,ttr_hours,gpu_slots,root_locus\r\n"
           "\r\n"
           "Tsubame-3,2018-01-01 00:00:00,1,GPU,3.25,0|3,\r\n"
           "   \r\n"
           "\t\r\n"
           "Tsubame-3,2018-01-02 00:00:00,2,Software,1,,kernel panic\r\n"
           "\"\"\r\n"
           "Tsubame-3,2018-01-03 00:00:00,3,Omni Path,0.5,,\r"
           "Tsubame-3,2018-01-04 00:00:00,4,CPU,0.5,,\"a\r\nb\"\r\n"
           "Tsubame-3,2018-01-05 00:00:00,5,CPU,0.5,,x",
       "log Tsubame-3 5\n"
       "  2018-01-01 00:00:00|1|GPU|3.25|0|3|\n"
       "  2018-01-02 00:00:00|2|Software|1||kernel panic\n"
       "  2018-01-03 00:00:00|3|Omni-Path|0.5||\n"
       "  2018-01-04 00:00:00|4|CPU|0.5||a\\r\\nb\n"
       "  2018-01-05 00:00:00|5|CPU|0.5||x\n",
       "log Tsubame-3 5\n"
       "  2018-01-01 00:00:00|1|GPU|3.25|0|3|\n"
       "  2018-01-02 00:00:00|2|Software|1||kernel panic\n"
       "  2018-01-03 00:00:00|3|Omni-Path|0.5||\n"
       "  2018-01-04 00:00:00|4|CPU|0.5||a\\r\\nb\n"
       "  2018-01-05 00:00:00|5|CPU|0.5||x\n"},
      {"messy_header",
       " ROOT_LOCUS ,Extra, Node ,  TIMESTAMP,Category ,GPU_SLOTS,TTR_Hours,MACHINE\n"
       "locus a,e1,10,2012-03-01 00:00:00,GPU,1,2.5,Tsubame-2\n"
       ",e2,11,2012-03-02 00:00:00,Fan,,1.0,Tsubame-2,extra1,extra2\n"
       "only,two\n"
       "x,e,12,2012-03-03 00:00:00,GPU,0,1.0, T2 \n"
       "y,e,13,2012-03-04 00:00:00\n",
       "log Tsubame-2 3\n"
       "  2012-03-01 00:00:00|10|GPU|2.5|1|locus a\n"
       "  2012-03-02 00:00:00|11|FAN|1||\n"
       "  2012-03-03 00:00:00|12|GPU|1|0|x\n"
       "row 4 validation: row on line 4 has 2 fields; column 'machine' is index 7\n"
       "row 6 validation: row on line 6 has 4 fields; column 'machine' is index 7\n",
       "error validation: line 4: row on line 4 has 2 fields; column 'machine' is index 7\n"},
      {"short_rows",
       h + "Tsubame-2,2012-06-01 10:00:00,5\n"
           "Tsubame-9,2012-06-01\n"
           "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0\n"
           "Tsubame-2,bad-time,5\n"
           "just-one-field\n"
           "Tsubame-2,2012-06-01 11:00:00,5,GPU,1.0,0,\n",
       "log Tsubame-2 1\n"
       "  2012-06-01 11:00:00|5|GPU|1|0|\n"
       "row 2 validation: row on line 2 has 3 fields; column 'category' is index 3\n"
       "row 3 not-found: unknown machine: 'Tsubame-9'\n"
       "row 4 validation: row on line 4 has 6 fields; column 'root_locus' is index 6\n"
       "row 5 parse: timestamp must start with a number: 'bad-time'\n"
       "row 6 not-found: unknown machine: 'just-one-field'\n",
       "error validation: line 2: row on line 2 has 3 fields; column 'category' is index 3\n"},
      {"duplicate_header_columns",
       "node,machine,timestamp,NODE,category,ttr_hours,gpu_slots,root_locus\n"
       "1,Tsubame-2,2012-06-01 10:00:00,2,GPU,1.0,0,\n"
       "3,Tsubame-2,2012-06-01 10:00:00,x,GPU,1.0,0,\n",
       "log Tsubame-2 2\n"
       "  2012-06-01 10:00:00|1|GPU|1|0|\n"
       "  2012-06-01 10:00:00|3|GPU|1|0|\n",
       "log Tsubame-2 2\n"
       "  2012-06-01 10:00:00|1|GPU|1|0|\n"
       "  2012-06-01 10:00:00|3|GPU|1|0|\n"},
      {"stray_quote_after_bad_row",
       h + "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-01 10:00:00,99999,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0,foo\"bar\n"
           "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0,\n",
       "error parse: stray quote in field on line 4\n",
       "error parse: stray quote in field on line 4\n"},
      {"stray_quote_after_quoted_field",
       h + "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0,\"ab\" \"c\"\n",
       "error parse: stray quote in field on line 2\n",
       "error parse: stray quote in field on line 2\n"},
      {"unterminated_quote_at_eof",
       h + "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-02 10:00:00,5,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-03 10:00:00,5,GPU,1.0,0,\"never closed\nmore\n",
       "error parse: unterminated quoted field starting near line 4\n",
       "error parse: unterminated quoted field starting near line 4\n"},
      {"missing_column_then_stray_quote",
       "machine,timestamp,node,category,ttr_hours,root_locus\n"
       "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,\n"
       "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,a\"b\n",
       "error parse: stray quote in field on line 3\n",
       "error parse: stray quote in field on line 3\n"},
      {"missing_columns",
       "machine,timestamp,node,category,gpu_slots\n"
       "Tsubame-2,2012-06-01 10:00:00,5,GPU,0\n",
       "error validation: log CSV is missing required column 'ttr_hours'\n",
       "error validation: log CSV is missing required column 'ttr_hours'\n"},
      {"mixed_machines",
       h + "Tsubame-9,2012-06-01 10:00:00,5,GPU,1.0,0,\n"
           "Tsubame-3,2018-06-01 10:00:00,5,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-01 10:00:00,5,GPU,1.0,0,\n"
           "Tsubame-3,2018-06-02 10:00:00,600,GPU,1.0,0,\n"
           "t3,2018-06-03 10:00:00,6,GPU,1.0,3,\n"
           "TSUBAME3,2018-06-04 10:00:00,7,GPU Driver Related,1.0,1|2,\n",
       "log Tsubame-3 3\n"
       "  2018-06-01 10:00:00|5|GPU|1|0|\n"
       "  2018-06-03 10:00:00|6|GPU|1|3|\n"
       "  2018-06-04 10:00:00|7|GPUDriver|1|1|2|\n"
       "row 2 not-found: unknown machine: 'Tsubame-9'\n"
       "row 4 validation: mixed machines in one log file\n"
       "row 5 validation: node index 600 outside [0, 540)\n",
       "error not-found: line 2: unknown machine: 'Tsubame-9'\n"},
      {"bad_field_values",
       h + "Tsubame-2,2012-06-01 00:00:00,1,Boot,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,2,Lustre,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,3, gpu driver related ,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,4,I.P.,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,5,,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,6,!!!,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,7,averyveryverylongcategorynamethatisnotreal,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,8,GPU\xC3\xA9,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,9,infiniBAND,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,+5,PSU,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00, 10 ,PSU,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,5.0,PSU,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,,PSU,1.0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,11,PSU,1e2,,\n"
           "Tsubame-2,2012-06-01 00:00:00,12,PSU,inf,,\n"
           "Tsubame-2,2012-06-01 00:00:00,13,PSU,nan,,\n"
           "Tsubame-2,2012-06-01 00:00:00,14,PSU,-0,,\n"
           "Tsubame-2,2012-06-01 00:00:00,15,PSU,-1,,\n"
           "Tsubame-2,2012-06-01 00:00:00,16,PSU, 2.5 ,,\n"
           "Tsubame-2,2012-06-01 00:00:00,17,PSU,0x10,,\n"
           "Tsubame-2,2011-01-01 00:00:00,18,PSU,1.0,,\n"
           "Tsubame-2,2012/06/02,19,PSU,1.0,,\n"
           "Tsubame-2,6/3/2012 10:00,20,PSU,1.0,,\n"
           "Tsubame-2,2012-06-04T10:00:00,21,PSU,1.0,,\n"
           "Tsubame-2,2012-02-30,22,PSU,1.0,,\n"
           "Tsubame-2,2012-06-01 25:00:00,23,PSU,1.0,,\n"
           "Tsubame-2,2013-08-14 00:00:00,24,PSU,1.0,,\n"
           "Tsubame-2,2013-08-16 00:00:00,25,PSU,1.0,,\n"
           "Tsubame-2,2012-06-05 00:00:00,26,GPU,1.0,1|1,\n"
           "Tsubame-2,2012-06-05 00:00:00,27,GPU,1.0,5,\n"
           "Tsubame-2,2012-06-05 00:00:00,28,GPU,1.0,7|7,\n"
           "Tsubame-2,2012-06-05 00:00:00,29,GPU,1.0,-1|9,\n"
           "Tsubame-2,2012-06-05 00:00:00,30,GPU,1.0,9|5,\n"
           "Tsubame-2,2012-06-05 00:00:00,31,GPU,1.0,0||1,\n"
           "Tsubame-2,2012-06-05 00:00:00,32,PBS,1.0,0,\n"
           "Tsubame-2,2012-06-05 00:00:00,33,GPU,1.0, 0 | 2 ,\n"
           "Tsubame-2,2012-06-05 00:00:00,34,GPU,1.0,2|0|1,\n"
           "Tsubame-2,2012-06-05 00:00:00,35,GPU,1.0,0|1|2|0,\n"
           "Tsubame-2,2012-06-05 00:00:00,-1,GPU,1.0,9,\n"
           "Tsubame-2,2012-06-05 00:00:00,36,Lustre,-1,9,\n"
           "Tsubame-2,2012-06-05 00:00:00,37,GPU,-1,9|9,\n"
           "Tsubame-2,2012-06-05 00:00:00,38,PBS,1.0,9|9,\n"
           "Tsubame-2,2012-06-05 00:00:00,39,GPU,1.0,x,\n"
           "Tsubame-2,2012-06-05 00:00:00,40,GPU,1.0,|,\n"
           "Tsubame-2,2012-06-05 00:00:00,41,GPU,1.0,99999999999,\n"
           "Tsubame-2,2012-06-05 00:00:00,42,CPU,1.0,,  spaced locus  \n",
       "log Tsubame-2 14\n"
       "  2012-06-01 00:00:00|1|Boot|1||\n"
       "  2012-06-01 00:00:00|8|GPU|1||\n"
       "  2012-06-01 00:00:00|9|IB|1||\n"
       "  2012-06-01 00:00:00|10|PSU|1||\n"
       "  2012-06-01 00:00:00|11|PSU|100||\n"
       "  2012-06-01 00:00:00|14|PSU|-0||\n"
       "  2012-06-01 00:00:00|16|PSU|2.5||\n"
       "  2012-06-02 00:00:00|19|PSU|1||\n"
       "  2012-06-03 10:00:00|20|PSU|1||\n"
       "  2012-06-04 10:00:00|21|PSU|1||\n"
       "  2012-06-05 00:00:00|33|GPU|1|0|2|\n"
       "  2012-06-05 00:00:00|34|GPU|1|2|0|1|\n"
       "  2012-06-05 00:00:00|42|CPU|1||spaced locus\n"
       "  2013-08-14 00:00:00|24|PSU|1||\n"
       "row 3 validation: category 'Lustre' is not in the Tsubame-2 vocabulary\n"
       "row 4 validation: category 'GPUDriver' is not in the Tsubame-2 vocabulary\n"
       "row 5 validation: category 'IP Motherboard' is not in the Tsubame-2 vocabulary\n"
       "row 6 parse: empty category name\n"
       "row 7 parse: empty category name\n"
       "row 8 not-found: unknown failure category: 'averyveryverylongcategorynamethatisnotreal'\n"
       "row 11 parse: node: not an integer: '+5'\n"
       "row 13 parse: node: not an integer: '5.0'\n"
       "row 14 parse: node: not an integer: ''\n"
       "row 16 validation: time to recovery must be finite and >= 0\n"
       "row 17 validation: time to recovery must be finite and >= 0\n"
       "row 19 validation: time to recovery must be finite and >= 0\n"
       "row 21 parse: ttr_hours: not a number: '0x10'\n"
       "row 22 validation: failure time 2011-01-01 00:00:00 outside the log window "
       "2012-01-07 .. 2013-08-01\n"
       "row 26 validation: '2012-02-30': day out of range: 30\n"
       "row 27 validation: '2012-06-01 25:00:00': hour out of range: 25\n"
       "row 29 validation: failure time 2013-08-16 00:00:00 outside the log window "
       "2012-01-07 .. 2013-08-01\n"
       "row 30 validation: duplicate GPU slot in record\n"
       "row 31 validation: GPU slot 5 outside [0, 3)\n"
       "row 32 validation: duplicate GPU slot in record\n"
       "row 33 validation: GPU slot -1 outside [0, 3)\n"
       "row 34 validation: GPU slot 5 outside [0, 3)\n"
       "row 35 parse: gpu_slots: not an integer: ''\n"
       "row 36 validation: GPU slots listed on a non-GPU-related category 'PBS'\n"
       "row 39 validation: duplicate GPU slot in record\n"
       "row 40 validation: node index -1 outside [0, 1408)\n"
       "row 41 validation: category 'Lustre' is not in the Tsubame-2 vocabulary\n"
       "row 42 validation: time to recovery must be finite and >= 0\n"
       "row 43 validation: duplicate GPU slot in record\n"
       "row 44 parse: gpu_slots: not an integer: 'x'\n"
       "row 45 parse: gpu_slots: not an integer: ''\n"
       "row 46 validation: GPU slot 1215752191 outside [0, 3)\n",
       "error validation: line 3: category 'Lustre' is not in the Tsubame-2 vocabulary\n"},
      {"out_of_order_with_ties",
       h + "Tsubame-2,2012-06-03 00:00:00,1,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-01 00:00:00,2,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-03 00:00:00,3,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-01 00:00:00,4,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-02 00:00:00,5,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-01 00:00:00,6,GPU,1.0,0,\n",
       "log Tsubame-2 6\n"
       "  2012-06-01 00:00:00|2|GPU|1|0|\n"
       "  2012-06-01 00:00:00|4|GPU|1|0|\n"
       "  2012-06-01 00:00:00|6|GPU|1|0|\n"
       "  2012-06-02 00:00:00|5|GPU|1|0|\n"
       "  2012-06-03 00:00:00|1|GPU|1|0|\n"
       "  2012-06-03 00:00:00|3|GPU|1|0|\n",
       "log Tsubame-2 6\n"
       "  2012-06-01 00:00:00|2|GPU|1|0|\n"
       "  2012-06-01 00:00:00|4|GPU|1|0|\n"
       "  2012-06-01 00:00:00|6|GPU|1|0|\n"
       "  2012-06-02 00:00:00|5|GPU|1|0|\n"
       "  2012-06-03 00:00:00|1|GPU|1|0|\n"
       "  2012-06-03 00:00:00|3|GPU|1|0|\n"},
      {"empty_document", "",
       "error parse: CSV document is empty (no header row)\n",
       "error parse: CSV document is empty (no header row)\n"},
      {"blank_lines_only", "\n \n\r\n\t\n",
       "error parse: CSV document is empty (no header row)\n",
       "error parse: CSV document is empty (no header row)\n"},
      {"bom_only", "\xEF\xBB\xBF",
       "error parse: CSV document is empty (no header row)\n",
       "error parse: CSV document is empty (no header row)\n"},
      {"header_only", h,
       "error validation: log CSV contains no parsable data rows\n",
       "error validation: log CSV contains no parsable data rows\n"},
      {"every_row_bad",
       h + "Tsubame-2,2012-06-01 00:00:00,5000,GPU,1.0,0,\nTsubame-2,x,1,GPU,1.0,0,\n",
       "log Tsubame-2 0\n"
       "row 2 validation: node index 5000 outside [0, 1408)\n"
       "row 3 parse: timestamp must start with a number: 'x'\n",
       "error validation: line 2: node index 5000 outside [0, 1408)\n"},
      {"bom_inside_data",
       h + "\xEF\xBB\xBF" "Tsubame-2,2012-06-01 00:00:00,5,GPU,1.0,0,\n"
           "Tsubame-2,2012-06-01 00:00:00,5,GPU,1.0,0,\xEF\xBB\xBF\n",
       "log Tsubame-2 1\n"
       "  2012-06-01 00:00:00|5|GPU|1|0|\xEF\xBB\xBF\n"
       "row 2 not-found: unknown machine: '\xEF\xBB\xBFTsubame-2'\n",
       "error not-found: line 2: unknown machine: '\xEF\xBB\xBFTsubame-2'\n"},
      {"no_final_newline_after_quote",
       h + "Tsubame-2,2012-06-01 00:00:00,5,GPU,1.0,0,\"last, quoted\"",
       "log Tsubame-2 1\n"
       "  2012-06-01 00:00:00|5|GPU|1|0|last, quoted\n",
       "log Tsubame-2 1\n"
       "  2012-06-01 00:00:00|5|GPU|1|0|last, quoted\n"},
      {"trailing_comma_field",
       h + "Tsubame-2,2012-06-01 00:00:00,5,GPU,1.0,0,locus,\n"
           "Tsubame-2,2012-06-01 00:00:00,6,GPU,1.0,0,locus,",
       "log Tsubame-2 2\n"
       "  2012-06-01 00:00:00|5|GPU|1|0|locus\n"
       "  2012-06-01 00:00:00|6|GPU|1|0|locus\n",
       "log Tsubame-2 2\n"
       "  2012-06-01 00:00:00|5|GPU|1|0|locus\n"
       "  2012-06-01 00:00:00|6|GPU|1|0|locus\n"},
  };
}

TEST(ReaderPin, AdversarialCorpusBothPolicies) {
  for (const PinCase& pin : corpus()) {
    const std::string lenient = dump(read_log_csv(pin.csv, ReadPolicy::kLenient));
    const std::string strict = dump(read_log_csv(pin.csv, ReadPolicy::kStrict));
    EXPECT_EQ(lenient, pin.lenient) << pin.name << " lenient, actual:" << as_literal(lenient);
    EXPECT_EQ(strict, pin.strict) << pin.name << " strict, actual:" << as_literal(strict);
  }
}

TEST(ReaderPin, FileReaderMatchesTextReaderAndNamesThePath) {
  for (const PinCase& pin : corpus()) {
    const std::string path = ::testing::TempDir() + "/tsufail_reader_pin.csv";
    {
      std::ofstream out(path, std::ios::binary);
      out << pin.csv;
    }
    for (const ReadPolicy policy : {ReadPolicy::kLenient, ReadPolicy::kStrict}) {
      const auto from_text = read_log_csv(pin.csv, policy);
      const auto from_file = read_log_file(path, policy);
      ASSERT_EQ(from_file.ok(), from_text.ok()) << pin.name;
      if (from_text.ok()) {
        EXPECT_EQ(dump(from_file), dump(from_text)) << pin.name;
      } else {
        EXPECT_EQ(from_file.error().kind(), from_text.error().kind()) << pin.name;
        EXPECT_EQ(from_file.error().message(), path + ": " + from_text.error().message())
            << pin.name;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(ReaderPin, SingleRowParser) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2,",
       "Tsubame-2 2012-06-01 10:00:00|5|GPU|20.5|0|2|"},
      {"Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2,\r",
       "Tsubame-2 2012-06-01 10:00:00|5|GPU|20.5|0|2|"},
      // A row is one line: only one trailing CR is dropped, and any other
      // line break fails the row.  (The split-based parser this replaced
      // kept them as field content.)
      {"Tsubame-2,2012-06-01 10:00:00,5,GPU,20.5,0|2,x\r\r",
       "error parse: line break inside row"},
      {"Tsubame-3,2018-06-01 10:00:00,5,Software,1,,\"a, \"\"b\"\" c\"",
       "Tsubame-3 2018-06-01 10:00:00|5|Software|1||a, \"b\" c"},
      {"\"Tsubame-3\",\"2018-06-01 10:00:00\",\"5\",\"CPU\",\"1\",\"\",\"ab\"cd",
       "Tsubame-3 2018-06-01 10:00:00|5|CPU|1||abcd"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,",
       "error parse: expected 7 fields, got 6"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,x,y",
       "error parse: expected 7 fields, got 8"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,a\"b",
       "error parse: stray quote in unquoted field"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,\"ab\" \"c\"",
       "error parse: stray quote in unquoted field"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,\"abc",
       "error parse: unterminated quote"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,\"a\"\"",
       "error parse: unterminated quote"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,a\nb",
       "error parse: line break inside row"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,\"a\nb\"",
       "error parse: line break inside row"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,a\rb",
       "error parse: line break inside row"},
      {"Tsubame-3,2018-06-01 10:00:00\n,5,CPU,1,,",
       "error parse: line break inside row"},
      {"",
       "error parse: expected 7 fields, got 1"},
      {",,,,,,",
       "error not-found: unknown machine: ''"},
      {"\xEF\xBB\xBF" "Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,",
       "error not-found: unknown machine: '\xEF\xBB\xBFTsubame-3'"},
      {"Tsubame-3,2018-06-01 10:00:00,5,Nope,1,,",
       "error not-found: unknown failure category: 'Nope'"},
      {"Tsubame-3,2018-06-01 10:00:00,5,CPU,1,,   ",
       "Tsubame-3 2018-06-01 10:00:00|5|CPU|1||"},
      {"Tsubame-3,2018-06-01 10:00:00,x,CPU,1,,",
       "error parse: node: not an integer: 'x'"},
      {"Tsubame-3,2018-06-01 10:00:00,9999,GPU,1,0|0,",
       "Tsubame-3 2018-06-01 10:00:00|9999|GPU|1|0|0|"},
  };
  for (const auto& [row, want] : cases) {
    const std::string actual = dump(parse_record_row(row));
    EXPECT_EQ(actual, want) << escaped(row) << " actual:" << as_literal(actual);
  }
}

/// The canonical writer rounds TTR to four decimals; this is the value a
/// reader must hand back for `ttr_hours`.
double written_ttr(double ttr_hours) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", ttr_hours);
  return std::strtod(buf, nullptr);
}

void expect_same_records(std::span<const FailureRecord> actual,
                         const std::vector<FailureRecord>& want) {
  ASSERT_EQ(actual.size(), want.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < want.size() && mismatches < 5; ++i) {
    const FailureRecord& a = actual[i];
    const FailureRecord& w = want[i];
    const bool same = a.time == w.time && a.node == w.node && a.category == w.category &&
                      a.ttr_hours == written_ttr(w.ttr_hours) && a.gpu_slots == w.gpu_slots &&
                      a.root_locus == w.root_locus;
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << "record " << i << ": " << show_record(a) << " vs " << show_record(w);
    }
  }
}

sim::MachineModel model_with(sim::MachineModel model, std::size_t failures) {
  model.total_failures = failures;
  return model;
}

TEST(ReaderProperty, WriteThenReadReturnsTheSameRecordsAt1e5) {
  for (const auto& model : {model_with(sim::tsubame2_model(), 100000),
                            model_with(sim::tsubame3_model(), 100000)}) {
    const auto log = sim::generate_log(model, 17).value();
    ASSERT_EQ(log.size(), 100000u);
    const auto report = read_log_csv(write_log_csv(log), ReadPolicy::kStrict);
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_TRUE(report.value().row_errors.empty());
    EXPECT_EQ(report.value().log.machine(), log.machine());
    expect_same_records(report.value().log.records(),
                        {log.records().begin(), log.records().end()});
  }
}

TEST(ReaderProperty, ShuffledRowsReadBackTimeSortedWithTiesInFileOrder) {
  const auto log = sim::generate_log(model_with(sim::tsubame3_model(), 100000), 23).value();
  const std::string csv = write_log_csv(log);

  // Split into header + one line per record (write_log_csv quotes no
  // newline into a field unless a root locus holds one; the generator's
  // loci do not).
  std::vector<std::string_view> lines;
  std::string_view text(csv);
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    lines.push_back(text.substr(0, end + 1));
    text.remove_prefix(end + 1);
  }
  ASSERT_EQ(lines.size(), log.size() + 1);

  std::vector<std::size_t> order(log.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(99);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_index(i)]);

  std::string shuffled(lines[0]);
  std::vector<FailureRecord> want;
  want.reserve(order.size());
  for (const std::size_t i : order) {
    shuffled += lines[i + 1];
    want.push_back(log.records()[i]);
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const FailureRecord& a, const FailureRecord& b) { return a.time < b.time; });
  std::size_t ties = 0;
  for (std::size_t i = 1; i < want.size(); ++i) ties += want[i].time == want[i - 1].time;
  ASSERT_GT(ties, 0u) << "the property needs equal timestamps to say anything about ties";

  const auto report = read_log_csv(shuffled, ReadPolicy::kStrict);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  expect_same_records(report.value().log.records(), want);
}

}  // namespace
}  // namespace tsufail::data
