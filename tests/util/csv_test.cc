#include "util/csv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/reference_trace_reader.h"
#include "util/error.h"

namespace ccdn {
namespace {

// CsvWriter is production code; CsvReader is the tests' reference reader
// (trace/reference_trace_reader.h), which TraceReader is checked against.
std::vector<std::vector<std::string>> read_all(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(in);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  while (reader.read_row(fields)) rows.push_back(fields);
  return rows;
}

TEST(CsvWriter, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
  EXPECT_EQ(writer.rows_written(), 1u);
}

TEST(CsvWriter, QuotesDelimiterAndQuotes) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a,b", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(out.str(), "\"a,b\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvWriter, HeterogeneousRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.row("name", 42, 3.5, std::size_t{7});
  EXPECT_EQ(out.str(), "name,42,3.5,7\n");
}

TEST(CsvReader, PlainRows) {
  const auto rows = read_all("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvReader, MissingTrailingNewline) {
  const auto rows = read_all("a,b");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvReader, EmptyFields) {
  const auto rows = read_all(",\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", ""}));
}

TEST(CsvReader, QuotedFields) {
  const auto rows = read_all("\"a,b\",\"x\"\"y\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "x\"y"}));
}

TEST(CsvReader, QuotedNewline) {
  const auto rows = read_all("\"line\nbreak\",z\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"line\nbreak", "z"}));
  // line() counts the newline inside quotes: the next row starts on line 3.
  std::istringstream in("\"line\nbreak\",z\nnext\n");
  CsvReader reader(in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.read_row(fields));
  EXPECT_EQ(reader.line(), 1u);
  ASSERT_TRUE(reader.read_row(fields));
  EXPECT_EQ(reader.line(), 3u);
}

TEST(CsvReader, CrLfHandled) {
  const auto rows = read_all("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
  // Only a CR before LF ends a row; any other CR is field data.
  EXPECT_EQ(read_all("a\rb,\"c\r\"\r\nd\r"),
            (std::vector<std::vector<std::string>>{{"a\rb", "c\r"}, {"d\r"}}));
}

TEST(CsvReader, UnterminatedQuoteThrows) {
  EXPECT_THROW(read_all("\"abc"), ParseError);
}

TEST(Csv, RoundTripArbitraryContent) {
  const std::vector<std::vector<std::string>> original{
      {"plain", "with,comma", "with\"quote"},
      {"", "multi\nline", "trailing space "},
      {"1.5", "-42", "0"},
      {"cr\rinside", "crlf\r\n", "\r"},
  };
  std::ostringstream out;
  CsvWriter writer(out);
  for (const auto& row : original) writer.write_row(row);
  const auto rows = read_all(out.str());
  EXPECT_EQ(rows, original);
}

TEST(CsvReader, EmptyInputYieldsNoRows) {
  EXPECT_TRUE(read_all("").empty());
}

}  // namespace
}  // namespace ccdn
