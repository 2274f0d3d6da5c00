#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/rng.h"
#include "util/strings.h"

namespace tsufail {
namespace {

TEST(CsvParse, SimpleDocument) {
  auto doc = CsvDocument::parse("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc.value().records().size(), 2u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(doc.value().records()[1].fields, (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvParse, NoTrailingNewline) {
  auto doc = CsvDocument::parse("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields[1], "2");
}

TEST(CsvParse, CrLfLineEndings) {
  auto doc = CsvDocument::parse("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, CrLfWithQuotedFields) {
  // CRLF terminators must not leak a stray '\r' into the last field,
  // with or without quoting around it.
  auto doc = CsvDocument::parse("a,b\r\n1,\"x,y\"\r\n2,plain\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 2u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "x,y"}));
  EXPECT_EQ(doc.value().records()[1].fields, (std::vector<std::string>{"2", "plain"}));
}

TEST(CsvParse, CrLfNoTrailingNewline) {
  auto doc = CsvDocument::parse("a,b\r\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, Utf8BomStripped) {
  // Spreadsheet exports prepend a UTF-8 BOM; it must not glue itself to
  // the first header name.
  auto doc = CsvDocument::parse("\xEF\xBB\xBF" "a,b\n1,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(doc.value().column("a").ok());
}

TEST(CsvParse, Utf8BomWithCrLf) {
  auto doc = CsvDocument::parse("\xEF\xBB\xBF" "a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc.value().records().size(), 1u);
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, BomOnlyInsideDocumentIsData) {
  // Only a leading BOM is stripped; the same bytes later in the file are
  // honest field content.
  auto doc = CsvDocument::parse("a,b\n\xEF\xBB\xBF" "x,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "\xEF\xBB\xBF" "x");
}

TEST(CsvParse, QuotedFieldWithComma) {
  auto doc = CsvDocument::parse("a,b\n\"x,y\",2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "x,y");
}

TEST(CsvParse, QuotedFieldWithEscapedQuote) {
  auto doc = CsvDocument::parse("a\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "say \"hi\"");
}

TEST(CsvParse, QuotedFieldWithEmbeddedNewline) {
  auto doc = CsvDocument::parse("a,b\n\"line1\nline2\",2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[0], "line1\nline2");
}

TEST(CsvParse, EmptyFieldsPreserved) {
  auto doc = CsvDocument::parse("a,b,c\n,,\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields, (std::vector<std::string>{"", "", ""}));
}

TEST(CsvParse, BlankLinesSkipped) {
  auto doc = CsvDocument::parse("a,b\n\n1,2\n\n\n3,4\n\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records().size(), 2u);
}

TEST(CsvParse, LineNumbersTracked) {
  auto doc = CsvDocument::parse("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].line_number, 2u);
  EXPECT_EQ(doc.value().records()[1].line_number, 3u);
}

TEST(CsvParse, UnterminatedQuoteIsError) {
  auto doc = CsvDocument::parse("a\n\"oops\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().kind(), ErrorKind::kParse);
}

TEST(CsvParse, StrayQuoteIsError) {
  auto doc = CsvDocument::parse("a\nfoo\"bar\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().kind(), ErrorKind::kParse);
}

TEST(CsvParse, EmptyDocumentIsError) {
  EXPECT_FALSE(CsvDocument::parse("").ok());
  EXPECT_FALSE(CsvDocument::parse("\n\n").ok());
}

TEST(CsvColumns, CaseInsensitiveLookup) {
  auto doc = CsvDocument::parse("Timestamp,Node\n1,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().column("timestamp").value(), 0u);
  EXPECT_EQ(doc.value().column("NODE").value(), 1u);
  EXPECT_FALSE(doc.value().column("missing").ok());
}

TEST(CsvColumns, FieldAccessor) {
  auto doc = CsvDocument::parse("a,b\n1,2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().field(doc.value().records()[0], "b").value(), "2");
}

TEST(CsvColumns, ShortRowReportsRowAndColumn) {
  auto doc = CsvDocument::parse("a,b,c\n1,2,3\n");
  ASSERT_TRUE(doc.ok());
  CsvRecord short_row{{"only"}, 5};
  auto field = doc.value().field(short_row, "c");
  ASSERT_FALSE(field.ok());
  EXPECT_NE(field.error().message().find("line 5"), std::string::npos);
  EXPECT_NE(field.error().message().find("'c'"), std::string::npos);
}

TEST(CsvWriter, EscapesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b,c"});
  writer.write_row({"1", "2"});
  EXPECT_EQ(out.str(), "a,\"b,c\"\n1,2\n");
}

TEST(CsvFile, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/tsufail_csv_test.csv";
  ASSERT_TRUE(write_csv_file(path, {"x", "y"}, {{"1", "hello, world"}, {"2", "line\nbreak"}}).ok());
  auto doc = CsvDocument::read_file(path);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().records()[0].fields[1], "hello, world");
  EXPECT_EQ(doc.value().records()[1].fields[1], "line\nbreak");
  std::remove(path.c_str());
}

TEST(CsvFile, MissingFileIsIoError) {
  auto doc = CsvDocument::read_file("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().kind(), ErrorKind::kIo);
}

TEST(CsvParse, StructuralScanMatchesFindFirstOf) {
  // Unquoted documents over an adversarial byte alphabet (NUL, high
  // bytes, whitespace, every structural byte but the quote) must parse
  // exactly as splitting with std::string_view::find_first_of(",\r\n")
  // does, at every length, with CRLF and lone CR both ending a row.
  static constexpr char kAlphabet[] = {',', '\r', '\n', '\0', '\x80', '\xff', ' ', '\t', 'a', ';'};
  Rng rng(5);
  for (const std::size_t n : {1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000}) {
    std::string text;
    for (std::size_t i = 0; i < n; ++i) text += kAlphabet[rng.uniform_index(sizeof kAlphabet)];

    const std::string_view view(text);
    std::vector<CsvRecord> want;
    std::size_t pos = 0;
    std::size_t line = 1;
    while (pos < view.size()) {
      CsvRecord record;
      record.line_number = line;
      while (true) {
        const std::size_t hit = view.find_first_of(",\r\n", pos);
        const std::size_t end = hit == std::string_view::npos ? view.size() : hit;
        record.fields.emplace_back(view.substr(pos, end - pos));
        pos = end + 1;
        if (hit == std::string_view::npos) break;
        if (view[hit] == ',') continue;
        if (view[hit] == '\r' && pos < view.size() && view[pos] == '\n') ++pos;
        ++line;
        break;
      }
      if (record.fields.size() != 1 || !trim(record.fields[0]).empty())
        want.push_back(std::move(record));
    }

    const auto doc = CsvDocument::parse(text);
    ASSERT_EQ(doc.ok(), !want.empty()) << "n=" << n;
    if (want.empty()) continue;
    EXPECT_EQ(doc.value().header(), want[0].fields) << "n=" << n;
    ASSERT_EQ(doc.value().records().size(), want.size() - 1) << "n=" << n;
    for (std::size_t i = 1; i < want.size(); ++i) {
      EXPECT_EQ(doc.value().records()[i - 1].fields, want[i].fields) << "n=" << n << " row=" << i;
      EXPECT_EQ(doc.value().records()[i - 1].line_number, want[i].line_number)
          << "n=" << n << " row=" << i;
    }
  }
}

// Property sweep: random documents survive a write -> parse round trip.
class CsvRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvRoundTrip, RandomDocumentsRoundTrip) {
  Rng rng(GetParam());
  const auto random_field = [&] {
    static constexpr char kAlphabet[] = "ab ,\"\n'x0;|";
    std::string field;
    const auto len = rng.uniform_index(8);
    for (std::uint64_t i = 0; i < len; ++i)
      field += kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)];
    return field;
  };

  const std::size_t cols = 1 + rng.uniform_index(5);
  std::vector<std::string> header;
  for (std::size_t c = 0; c < cols; ++c) header.push_back("col" + std::to_string(c));
  std::vector<std::vector<std::string>> rows(1 + rng.uniform_index(20));
  for (auto& row : rows) {
    row.resize(cols);
    for (auto& cell : row) cell = random_field();
  }

  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row(header);
  for (const auto& row : rows) writer.write_row(row);

  auto doc = CsvDocument::parse(out.str());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header(), header);
  // Single-column rows whose content is all whitespace parse as blank
  // records and are skipped by design; compare against the survivors.
  std::vector<std::vector<std::string>> expected;
  for (const auto& row : rows) {
    const bool blankish =
        cols == 1 && row[0].find_first_not_of(" \t\r\n") == std::string::npos;
    if (!blankish) expected.push_back(row);
  }
  ASSERT_EQ(doc.value().records().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(doc.value().records()[i].fields, expected[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace tsufail
