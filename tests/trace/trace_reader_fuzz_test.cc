// Seeded mutation differential: TraceReader's block parser against the
// char-at-a-time reference (reference_trace_reader.h) on valid traces, and
// on a trace of rows at the edges of its one-pass path, with bytes
// flipped, inserted, deleted or cut off. Both readers must yield the same
// requests and line() values, or ParseErrors with the same text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/reference_trace_reader.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

constexpr std::size_t kBlock = std::size_t{64} << 10;  // TraceReader's reads

/// Everything a reader yields on `csv`, one entry per next() outcome (or
/// one for a rejected header); doubles exact via %a. Every outcome consumes
/// at least one byte, so a reader still yielding past that is stuck.
template <typename Reader>
std::vector<std::string> replay(const std::string& csv) {
  std::istringstream in(csv);
  std::optional<Reader> reader;
  try {
    reader.emplace(in);
  } catch (const ParseError& error) {
    return {std::string("header error: ") + error.what()};
  }
  std::vector<std::string> events;
  while (true) {
    if (events.size() > csv.size()) {
      ADD_FAILURE() << "reader stuck";
      return events;
    }
    try {
      const std::optional<Request> r = reader->next();
      if (!r) return events;
      char text[160];
      std::snprintf(text, sizeof text, "line %zu: %u %lld %u %a %a",
                    reader->line(), r->user,
                    static_cast<long long>(r->timestamp), r->video,
                    r->location.lat, r->location.lon);
      events.emplace_back(text);
    } catch (const ParseError& error) {
      events.push_back("line " + std::to_string(reader->line()) +
                       " error: " + error.what());
    }
  }
}

struct Verdict {
  std::string difference;  // the first differing outcome; empty if none
  std::size_t requests = 0;
  std::size_t errors = 0;
};

Verdict compare(const std::string& csv) {
  const auto block = replay<TraceReader>(csv);
  const auto reference = replay<ReferenceTraceReader>(csv);
  Verdict verdict;
  for (std::size_t i = 0; i < std::max(block.size(), reference.size()); ++i) {
    const std::string b = i < block.size() ? block[i] : "<end>";
    const std::string r = i < reference.size() ? reference[i] : "<end>";
    if (b != r) {
      verdict.difference = "outcome " + std::to_string(i) +
                           "\n  block:     " + b + "\n  reference: " + r;
      return verdict;
    }
    ++(b.find("error: ") == std::string::npos ? verdict.requests
                                               : verdict.errors);
  }
  return verdict;
}

std::vector<std::string> random_fields(Rng& rng) {
  char lat[32];
  char lon[32];
  std::snprintf(lat, sizeof lat, "%.17g", rng.uniform(39.8, 40.2));
  std::snprintf(lon, sizeof lon, "%.17g", rng.uniform(116.2, 116.7));
  return {std::to_string(rng.uniform_int(0, 99999)),
          std::to_string(rng.uniform_int(0, 10'000'000)),
          std::to_string(rng.uniform_int(0, 4999)), lat, lon};
}

std::string join_row(const std::vector<std::string>& fields) {
  std::string row = fields[0];
  for (std::size_t i = 1; i < fields.size(); ++i) row += "," + fields[i];
  return row;
}

std::string rows_of(Rng& rng, std::size_t rows, const char* line_end) {
  std::string csv;
  for (std::size_t i = 0; i < rows; ++i) {
    csv += join_row(random_fields(rng)) + line_end;
  }
  return csv;
}

std::string trace_of(Rng& rng, std::size_t rows, const char* line_end) {
  return "user,timestamp,video,lat,lon" + std::string(line_end) +
         rows_of(rng, rows, line_end);
}

/// Valid rows spelled every way the quoted path has a branch for: quoted
/// fields, an empty quoted prefix, a newline and a CR inside quotes, blanks
/// after a closing quote, CRLF, and no final newline.
std::string quoted_trace(Rng& rng) {
  std::string csv = "\"user\",timestamp,video,lat,\"lon\"\r\n";
  for (std::size_t i = 0; i < 40; ++i) {
    std::vector<std::string> f = random_fields(rng);
    switch (i % 4) {
      case 0:
        for (std::string& field : f) field = "\"" + field + "\"";
        break;
      case 1:
        f[1] = "\"" + f[1] + "\n\"";
        break;
      case 2:
        f[0] = "\"\"" + f[0];
        f[1] = "\"" + f[1] + "\" ";
        f[2] = "\"" + f[2] + "\r\"";
        break;
      default:
        break;
    }
    csv += join_row(f) + (i % 2 == 0 ? "\n" : "\r\n");
  }
  return csv + join_row(random_fields(rng));
}

/// One unquoted and one quoted row longer than a block (blanks around a
/// number are trimmed), between plain rows; the 64 KiB boundary falls
/// inside the first.
std::string long_row_trace(Rng& rng) {
  return trace_of(rng, 100, "\n") + "1,2,3," + std::string(kBlock + 100, ' ') +
         "40.0,116.5\n" + "4,5,\"" + std::string(kBlock + 7, ' ') +
         "6\",40.1,116.6\n" + rows_of(rng, 50, "\n");
}

/// Rows on the edges of TraceReader's one-pass path, which must read each
/// row exactly as the general path does or leave it to that path: blanks,
/// '+', "-0", leading zeros, exponents, nan and inf; ids at 2^32 - 1 and
/// 2^32; latitudes at ±90 and the next double past them; longitudes at
/// ±180 and past them; CR-only and CRLF ends, an empty and a sixth field.
/// Plain rows then pad the trace so that one row's LF is the last byte of
/// the first block, and the last row has no final LF. Built without the
/// seeded stream, so the other bases' mutants stay as they were.
std::string edge_trace() {
  const char* const kRows[] = {
      "0,0,0,0,0\n",
      "-0,-0,-0,-0,-0\n",
      "007,0000,00042,040.5,0116.25\n",
      " 1 ,2, 3,40.5 , 116.25\n",
      "\t1,2,3,40.5,116.25 \r\n",
      "+5,2,3,40.5,116.25\n",
      "1,+2,3,40.5,116.25\n",
      "1,2,3,+40.5,116.25\n",
      "1,1e2,3,40.5,116.25\n",
      "1,2,3,4.05e1,1e2\n",
      "1,2,3,1e2,116.25\n",
      "1,2,3,nan,116.25\n",
      "1,2,3,40.5,nan\r\n",
      "1,2,3,inf,116.25\n",
      "1,2,3,40.5,-inf\n",
      "1,2,3,40.5,infinity\n",
      "4294967295,9223372036854775807,4294967295,40.5,116.25\n",
      "4294967296,2,3,40.5,116.25\n",
      "1,2,4294967296,40.5,116.25\n",
      "1,9223372036854775808,3,40.5,116.25\n",
      "1,2,3,90,180\n",
      "1,2,3,-90,-180\r\n",
      "1,2,3,90.000000000000014,116.25\n",
      "1,2,3,-90.000000000000014,116.25\n",
      "1,2,3,40.5,180.00000000000003\n",
      "1,2,3,40.5,-180.00000000000003\n",
      "1,2,3,40.5,181\n",
      "1,2,3,40.5,116.25\r1,2,3,40.5,116.25\n",
      "1,2,3,40.5,116.25\r\r\n",
      "1,,3,40.5,116.25\n",
      "1,2,3,40.5,\n",
      "1,2,3,40.5,116.25,7\n",
      "1,2,3,40.5,116.25,\r\n",
  };
  std::string csv = "user,timestamp,video,lat,lon\n";
  for (const char* row : kRows) csv += row;
  const std::string plain = "1,2,3,40.5,116.25\n";
  while (csv.size() + 2 * plain.size() < kBlock) csv += plain;
  // Leading zeros stretch the last row of the block to end at its edge.
  csv += std::string(kBlock - csv.size() - plain.size(), '0') + plain;
  for (const char* row : kRows) csv += row;
  return csv + "1,2,3,40.5,116.25";
}

/// Applies one seeded edit: a byte flip, an inserted, deleted or
/// overwritten separator, quote, CR, LF or blank, a digit edit, or a
/// truncation. Half the edits of an input longer than a block land within
/// 64 bytes of the first block boundary.
void mutate(std::string& csv, Rng& rng) {
  if (csv.empty()) return;
  std::size_t at = rng.index(csv.size());
  if (csv.size() > kBlock + 64 && rng.chance(0.5)) {
    at = kBlock - 64 + rng.index(128);
  }
  static const std::string kSpecial = ",\"\r\n ";
  switch (rng.index(6)) {
    case 0:
      csv[at] = static_cast<char>(rng.index(256));
      break;
    case 1:
      csv.insert(at, 1, kSpecial[rng.index(kSpecial.size())]);
      break;
    case 2:
      csv.erase(at, 1);
      break;
    case 3:
      csv[at] = kSpecial[rng.index(kSpecial.size())];
      break;
    case 4: {
      const std::size_t digit = csv.find_first_of("0123456789", at);
      if (digit != std::string::npos) {
        csv[digit] = "0123456789-.e"[rng.index(13)];
      }
      break;
    }
    default:
      csv.resize(at);
      break;
  }
}

TEST(TraceReaderDifferential, MutatedTracesParseAlike) {
  Rng rng(20);
  const struct {
    const char* name;
    std::string csv;
    std::size_t rows;
    std::size_t errors = 0;
  } bases[] = {
      {"small", trace_of(rng, 30, "\n"), 30},
      {"crlf", trace_of(rng, 30, "\r\n"), 30},
      {"quoted", quoted_trace(rng), 41},
      {"large", trace_of(rng, 1300, "\n"), 1300},
      {"long rows", long_row_trace(rng), 152},
      {"one-pass edges", edge_trace(), 3619, 46},
  };
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (const auto& base : bases) {
    const Verdict valid = compare(base.csv);
    ASSERT_EQ(valid.difference, "") << base.name;
    EXPECT_EQ(valid.requests, base.rows) << base.name;
    EXPECT_EQ(valid.errors, base.errors) << base.name;
    const std::size_t cases = base.csv.size() > kBlock ? 32 : 500;
    for (std::size_t c = 0; c < cases; ++c) {
      std::string csv = base.csv;
      const std::size_t edits = 1 + rng.index(3);
      for (std::size_t e = 0; e < edits; ++e) mutate(csv, rng);
      const Verdict verdict = compare(csv);
      ASSERT_EQ(verdict.difference, "") << base.name << " case " << c;
      ++(verdict.errors == 0 ? loaded : rejected);
    }
  }
  // Both outcomes are common (307 and 1,257 of the valid bases' 1,564
  // cases; the edge base's 32 all keep a bad row), so neither reader passes
  // by always failing.
  EXPECT_GT(loaded, 200u);
  EXPECT_GT(rejected, 800u);
}

}  // namespace
}  // namespace ccdn
