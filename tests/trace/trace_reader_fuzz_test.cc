// Seeded mutation differentials on valid traces, on a trace of rows at
// the edges of TraceReader's one-pass path, and on a trace laid out over
// CsvSlotSource's pieces, with bytes flipped, inserted, deleted or cut off:
//   * TraceReader's block parser against the char-at-a-time reference
//     (reference_trace_reader.h): both must yield the same requests and
//     line() values, or ParseErrors with the same text;
//   * CsvSlotSource on a file, its pieces parsed inline and on a lent pool
//     (on the piece trace, also one whose workers slot tasks keep busy),
//     against CsvSlotSource over a TraceReader on the same bytes: the same
//     batches, then the same error text from the same next() call.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace/reference_trace_reader.h"
#include "trace/slot_source.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

/// Applies one seeded edit at byte `at`: a byte flip, an inserted, deleted
/// or overwritten separator, quote, CR, LF or blank, a digit edit, or a
/// truncation.
void mutate_at(std::string& csv, std::size_t at, Rng& rng) {
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

/// mutate_at a seeded byte. Half the edits of an input longer than a block
/// land within 64 bytes of the first block boundary.
void mutate(std::string& csv, Rng& rng) {
  if (csv.empty()) return;
  std::size_t at = rng.index(csv.size());
  if (csv.size() > kBlock + 64 && rng.chance(0.5)) {
    at = kBlock - 64 + rng.index(128);
  }
  mutate_at(csv, at, rng);
}

struct Base {
  const char* name;
  std::string csv;
  std::size_t rows;
  std::size_t errors = 0;
};

/// Calls visit(base, csv, mutant) on each base, with mutant -1, and then
/// on each of its seeded mutants, numbered from 0: the same inputs, in the
/// same order, for every differential. Stops when visit returns false.
template <typename Visit>
void for_each_input(Visit visit) {
  Rng rng(20);
  const Base bases[] = {
      {"small", trace_of(rng, 30, "\n"), 30},
      {"crlf", trace_of(rng, 30, "\r\n"), 30},
      {"quoted", quoted_trace(rng), 41},
      {"large", trace_of(rng, 1300, "\n"), 1300},
      {"long rows", long_row_trace(rng), 152},
      {"one-pass edges", edge_trace(), 3619, 46},
  };
  for (const Base& base : bases) {
    if (!visit(base, base.csv, -1)) return;
    const std::size_t cases = base.csv.size() > kBlock ? 32 : 500;
    for (std::size_t c = 0; c < cases; ++c) {
      std::string csv = base.csv;
      const std::size_t edits = 1 + rng.index(3);
      for (std::size_t e = 0; e < edits; ++e) mutate(csv, rng);
      if (!visit(base, csv, static_cast<int>(c))) return;
    }
  }
}

TEST(TraceReaderDifferential, MutatedTracesParseAlike) {
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for_each_input([&](const Base& base, const std::string& csv, int mutant) {
    const Verdict verdict = compare(csv);
    if (!verdict.difference.empty()) {
      ADD_FAILURE() << base.name << " mutant " << mutant << ": "
                    << verdict.difference;
      return false;
    }
    if (mutant < 0) {
      EXPECT_EQ(verdict.requests, base.rows) << base.name;
      EXPECT_EQ(verdict.errors, base.errors) << base.name;
    } else {
      ++(verdict.errors == 0 ? loaded : rejected);
    }
    return true;
  });
  // Both outcomes are common (307 and 1,257 of the valid bases' 1,564
  // cases; the edge base's 32 all keep a bad row), so neither reader passes
  // by always failing.
  EXPECT_GT(loaded, 200u);
  EXPECT_GT(rejected, 800u);
}

// --- CsvSlotSource: pieces against the reader ------------------------------

constexpr std::size_t kPiece = std::size_t{128} << 10;  // CsvSlotSource's
constexpr std::size_t kSlack = std::size_t{4} << 10;    // pieces
constexpr std::int64_t kSlotSeconds = 3600;

/// What a source yields: its batches, then how it ended: "end" for the
/// nullopt, or the ParseError text the last next() call threw.
struct Pulled {
  std::vector<SlotBatch> batches;
  std::string end;
};

/// Pulls `source` dry. With `hold`, every worker of that pool is first
/// given a slot-class task that sleeps 300 µs before each next() call, so
/// the read-ahead that call submits waits behind them, as behind planned
/// slots in a run.
Pulled pull(CsvSlotSource& source, ThreadPool* hold = nullptr) {
  Pulled pulled;
  try {
    for (;;) {
      for (std::size_t i = 0; hold != nullptr && i < hold->size(); ++i) {
        (void)hold->submit([] {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        });
      }
      std::optional<SlotBatch> batch = source.next();
      if (!batch.has_value()) break;
      pulled.batches.push_back(std::move(*batch));
    }
    pulled.end = "end";
  } catch (const ParseError& error) {
    pulled.end = std::string("error: ") + error.what();
  }
  return pulled;
}

/// pull() of CsvSlotSource(path), or the error its constructor threw.
Pulled pull_file(const std::string& path, ThreadPool* hold = nullptr) {
  std::optional<CsvSlotSource> source;
  try {
    source.emplace(path, kSlotSeconds);
  } catch (const ParseError& error) {
    return {{}, std::string("header error: ") + error.what()};
  }
  return pull(*source, hold);
}

/// A request as text, its doubles exact via %a.
std::string describe(const Request& r) {
  char text[128];
  std::snprintf(text, sizeof text, "%u %lld %u %a %a", r.user,
                static_cast<long long>(r.timestamp), r.video, r.location.lat,
                r.location.lon);
  return text;
}

bool same_request(const Request& a, const Request& b) {
  return a.user == b.user && a.timestamp == b.timestamp &&
         a.video == b.video &&
         std::bit_cast<std::uint64_t>(a.location.lat) ==
             std::bit_cast<std::uint64_t>(b.location.lat) &&
         std::bit_cast<std::uint64_t>(a.location.lon) ==
             std::bit_cast<std::uint64_t>(b.location.lon);
}

/// Where `got` first parts from `want`, or "" when they agree.
std::string difference(const Pulled& want, const Pulled& got) {
  const std::size_t batches = std::min(want.batches.size(), got.batches.size());
  for (std::size_t i = 0; i < batches; ++i) {
    const SlotBatch& w = want.batches[i];
    const SlotBatch& g = got.batches[i];
    const std::string at = "next() call " + std::to_string(i) + ": ";
    if (w.slot_index != g.slot_index) {
      return at + "slot " + std::to_string(g.slot_index) + " against " +
             std::to_string(w.slot_index);
    }
    const std::size_t rows = std::min(w.requests.size(), g.requests.size());
    for (std::size_t r = 0; r < rows; ++r) {
      if (!same_request(w.requests[r], g.requests[r])) {
        return at + "request " + std::to_string(r) + "\n  pieces: " +
               describe(g.requests[r]) +
               "\n  reader: " + describe(w.requests[r]);
      }
    }
    if (w.requests.size() != g.requests.size()) {
      return at + std::to_string(g.requests.size()) + " requests against " +
             std::to_string(w.requests.size());
    }
  }
  if (want.batches.size() != got.batches.size() || want.end != got.end) {
    return "after " + std::to_string(batches) + " batches\n  pieces: " +
           (got.batches.size() > batches ? "a batch" : got.end) +
           "\n  reader: " +
           (want.batches.size() > batches ? "a batch" : want.end);
  }
  return "";
}

/// Writes `csv` to `path` and reads it as CsvSlotSource over a TraceReader
/// on the bytes, and as CsvSlotSource(path) with no pool, with `pool` lent
/// and idle, and, when `held`, with `pool` lent and its workers held by
/// slot tasks before each pull. Returns the first difference, or "" when
/// all agree; counts the reference's batches and errors into `batches` and
/// `errors`.
std::string compare_slots(const std::string& csv, const std::string& path,
                          ThreadPool& pool, bool held, std::size_t& batches,
                          std::size_t& errors) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << csv;
  }
  Pulled reference;
  std::istringstream in(csv);
  try {
    TraceReader reader(in);
    CsvSlotSource source(reader, kSlotSeconds);
    reference = pull(source);
  } catch (const ParseError& error) {
    reference = {{}, std::string("header error: ") + error.what()};
  }
  std::vector<std::pair<const char*, Pulled>> pieces;
  pieces.emplace_back("inline", pull_file(path));
  {
    const ThreadPool::Lend lend(pool);
    pieces.emplace_back("lent", pull_file(path));
    if (held) pieces.emplace_back("held", pull_file(path, &pool));
  }
  for (const auto& [name, pulled] : pieces) {
    const std::string parted = difference(reference, pulled);
    if (!parted.empty()) return std::string(name) + " pieces, " + parted;
  }
  batches += reference.batches.size();
  if (reference.end.find("error: ") != std::string::npos) ++errors;
  return "";
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/ccdn_" + name + ".csv";
}

TEST(CsvSlotSourceDifferential, MutatedTracesSlotAlike) {
  ThreadPool pool(4);
  const std::string path = temp_path("slot_source_mutants");
  std::size_t inputs = 0;
  std::size_t batches = 0;
  std::size_t errors = 0;
  for_each_input([&](const Base& base, const std::string& csv, int mutant) {
    ++inputs;
    const std::string difference =
        compare_slots(csv, path, pool, false, batches, errors);
    if (!difference.empty()) {
      ADD_FAILURE() << base.name << " mutant " << mutant << ": "
                    << difference;
      return false;
    }
    return true;
  });
  std::remove(path.c_str());
  // The bases' timestamps are not sorted, so nearly every input ends in an
  // error (1,599 of 1,602), most at a line's sort check; the batches are
  // mostly the empty slots of the gaps between rows (40,564).
  EXPECT_EQ(inputs, 1602u);
  EXPECT_GT(errors, inputs / 2);
  EXPECT_GT(batches, 100u);
}

/// One plain row at `timestamp` whose LF is the byte before `end`, its user
/// id stretched with leading zeros.
void append_row_ending_at(std::string& csv, std::size_t end,
                          std::int64_t timestamp) {
  const std::string tail = "," + std::to_string(timestamp) + ",7,40.5,116.25\n";
  ASSERT_GE(end, csv.size() + tail.size() + 1);
  csv += std::string(end - csv.size() - tail.size() - 1, '0') + "1" + tail;
}

/// Sorted plain rows over three turns of CsvSlotSource's ring of 8 pieces
/// and one range more (25 ranges of 128 KiB), two timestamps a second, so
/// 7,200 rows to an hourly slot. A row starts exactly on the first range
/// boundary and on the first range of each later turn, and the second
/// range's last row ends with its LF as the last byte that piece reads,
/// 4 KiB past its range. Other rows straddle every boundary.
std::string piece_trace(Rng& rng) {
  std::string csv = "user,timestamp,video,lat,lon\n";
  std::int64_t row = 0;
  const auto plain_rows_until = [&](std::size_t end) {
    while (csv.size() < end) {
      std::vector<std::string> fields = random_fields(rng);
      fields[1] = std::to_string(row++ / 2);
      csv += join_row(fields) + "\n";
    }
  };
  plain_rows_until(kPiece - 200);
  append_row_ending_at(csv, kPiece, row++ / 2);
  plain_rows_until(2 * kPiece - 200);
  append_row_ending_at(csv, 2 * kPiece + kSlack, row++ / 2);
  for (const std::size_t turn : {8, 16, 24}) {
    plain_rows_until(turn * kPiece - 200);
    append_row_ending_at(csv, turn * kPiece, row++ / 2);
  }
  plain_rows_until(25 * kPiece - 100);
  return csv;
}

/// Start of the first row at or after byte `at`.
std::size_t row_start_after(const std::string& csv, std::size_t at) {
  return csv.find('\n', at - 1) + 1;
}

TEST(CsvSlotSourceDifferential, PieceEdgesSlotAlike) {
  Rng rng(29);
  const std::string base = piece_trace(rng);
  ASSERT_EQ(base[kPiece - 1], '\n');
  ASSERT_EQ(base[2 * kPiece + kSlack - 1], '\n');
  ASSERT_EQ(base.find('\n', 2 * kPiece - 1), 2 * kPiece + kSlack - 1);
  for (const std::size_t turn : {8, 16, 24}) {
    ASSERT_EQ(base[turn * kPiece - 1], '\n');
  }

  // Ranges 8 and up are parsed by ring pieces cut again after a hand-out.
  std::vector<std::pair<std::string, std::string>> cases;
  cases.emplace_back("base", base);
  cases.emplace_back("no final LF", base.substr(0, base.size() - 1));
  for (std::size_t turn = 0; turn < 3; ++turn) {
    // The turn's second piece.
    const std::size_t at =
        row_start_after(base, (8 * turn + 1) * kPiece + 1000);
    const std::string which = " in turn " + std::to_string(turn + 1);
    std::string quoted = base;
    quoted.insert(quoted.find(',', at), "\"");
    quoted.insert(at, "\"");
    cases.emplace_back("quote" + which, quoted);
    std::string blank = base;
    blank.insert(at, "\n");
    cases.emplace_back("blank line" + which, blank);
  }
  for (const std::size_t range : {2, 18}) {
    // The last row starting in the range, longer than the slack.
    std::string longer = base;
    longer.insert(base.rfind('\n', (range + 1) * kPiece - 2) + 1,
                  std::string(kSlack + 100, '0'));
    cases.emplace_back("row longer than the slack in range " +
                           std::to_string(range),
                       longer);
  }
  {
    // The second range's last row, its LF one byte past the slack.
    std::string past = base;
    past.insert(base.rfind('\n', 2 * kPiece - 2) + 1, "0");
    cases.emplace_back("LF past the slack", past);
  }
  for (const std::size_t range : {9, 20}) {
    // A row back at timestamp 0.
    std::string unsorted = base;
    const std::size_t at = row_start_after(base, range * kPiece + 5000);
    const std::size_t ts = unsorted.find(',', at) + 1;
    unsorted.replace(ts, unsorted.find(',', ts) - ts, "0");
    cases.emplace_back("unsorted in range " + std::to_string(range),
                       unsorted);
  }
  for (const std::size_t cut : {4 * kPiece, 9 * kPiece + 77, 17 * kPiece + 77,
                                20 * kPiece}) {
    cases.emplace_back("cut at byte " + std::to_string(cut),
                       base.substr(0, cut));
  }
  // Seeded edits within 64 bytes of the k-th range boundary and the slack
  // end past it: every boundary up to the third range of the second turn,
  // then the first two of the third turn and the one after the last turn.
  for (const std::size_t k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 24}) {
    for (const std::size_t edge : {k * kPiece, k * kPiece + kSlack}) {
      std::string csv = base;
      mutate_at(csv, edge - 64 + rng.index(128), rng);
      cases.emplace_back("edit near byte " + std::to_string(edge), csv);
    }
  }

  ThreadPool pool(4);
  const std::string path = temp_path("slot_source_pieces");
  std::size_t batches = 0;
  std::size_t errors = 0;
  for (const auto& [name, csv] : cases) {
    const std::size_t batches_before = batches;
    ASSERT_EQ(compare_slots(csv, path, pool, true, batches, errors), "")
        << name;
    if (name == "base") {
      EXPECT_EQ(batches - batches_before, 9u);
    }
  }
  std::remove(path.c_str());
  // 218 batches and 28 errors over the 43 cases; the blank lines and the
  // unsorted rows always fail.
  EXPECT_GE(errors, 5u);
}

}  // namespace
}  // namespace ccdn
