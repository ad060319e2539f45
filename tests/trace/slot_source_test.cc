// SlotSource contract and windowed-generation equivalence.
//
// The streaming pipeline's correctness rests on one invariant: every
// SlotSource emits exactly the slot sequence partition_into_slots would
// produce on the equivalent materialized trace (consecutive indices from
// 0, interior empty slots preserved, no trailing empties), and the
// TraceGenerator's windowed cursor reproduces generate() bit for bit when
// its batches are concatenated. These tests pin both halves.
#include "trace/slot_source.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "model/timeslots.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
#include "trace/world.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace ccdn {
namespace {

World small_world(std::uint64_t seed = 7) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = 25;
  config.num_videos = 600;
  config.num_users = 3000;
  config.seed = seed;
  return generate_world(config);
}

void expect_same_request(const Request& a, const Request& b,
                         std::size_t index) {
  EXPECT_EQ(a.user, b.user) << "request " << index;
  EXPECT_EQ(a.video, b.video) << "request " << index;
  EXPECT_EQ(a.timestamp, b.timestamp) << "request " << index;
  EXPECT_EQ(a.location.lat, b.location.lat) << "request " << index;
  EXPECT_EQ(a.location.lon, b.location.lon) << "request " << index;
}

/// Bit-for-bit: concatenating the cursor's batches reproduces generate(),
/// and the batch layout matches partition_into_slots on the result.
void expect_windowed_equals_monolithic(const World& world,
                                       const TraceConfig& config,
                                       std::int64_t slot_seconds) {
  TraceGenerator generator(world, config, slot_seconds);
  const std::vector<Request> monolithic = generator.generate();

  std::vector<Request> concatenated;
  std::vector<std::size_t> batch_sizes;
  while (auto batch = generator.next_slot_batch()) {
    batch_sizes.push_back(batch->size());
    concatenated.insert(concatenated.end(), batch->begin(), batch->end());
  }

  ASSERT_EQ(concatenated.size(), monolithic.size());
  for (std::size_t i = 0; i < monolithic.size(); ++i) {
    expect_same_request(concatenated[i], monolithic[i], i);
  }

  const auto ranges = partition_into_slots(monolithic, slot_seconds);
  ASSERT_EQ(batch_sizes.size(), ranges.size());
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    EXPECT_EQ(batch_sizes[s], ranges[s].size()) << "slot " << s;
  }
}

TEST(TraceGeneratorWindowed, ConcatenationMatchesGenerate) {
  const World world = small_world();
  TraceConfig config;
  config.num_requests = 4000;
  expect_windowed_equals_monolithic(world, config, 3600);
}

TEST(TraceGeneratorWindowed, MatchesAcrossSeedsAndSlotLengths) {
  for (const std::uint64_t seed : {7ull, 42ull, 9001ull}) {
    const World world = small_world(seed);
    TraceConfig config;
    config.num_requests = 2500;
    config.seed = seed;
    for (const std::int64_t slot_seconds : {1800l, 7200l}) {
      expect_windowed_equals_monolithic(world, config, slot_seconds);
    }
  }
}

TEST(TraceGeneratorWindowed, MatchesWithMicroPhaseDisabled) {
  // The micro-locality phase shift is what moves timestamps after the
  // primary draw; the windowed path must decompose with it on AND off.
  const World world = small_world();
  TraceConfig config;
  config.num_requests = 2500;
  config.micro_phase_max_shift_hours = 0;
  expect_windowed_equals_monolithic(world, config, 3600);
}

TEST(TraceGeneratorWindowed, ResetRewindsTheCursor) {
  const World world = small_world();
  TraceConfig config;
  config.num_requests = 1500;
  TraceGenerator generator(world, config);
  auto first = generator.next_slot_batch();
  ASSERT_TRUE(first.has_value());
  while (generator.next_slot_batch().has_value()) {
  }
  generator.reset();
  EXPECT_EQ(generator.next_slot_index(), 0u);
  auto again = generator.next_slot_batch();
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(again->size(), first->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    expect_same_request((*again)[i], (*first)[i], i);
  }
}

TEST(TraceGeneratorWindowed, NumSlotsMatchesEmittedBatches) {
  const World world = small_world();
  TraceConfig config;
  config.num_requests = 2000;
  TraceGenerator generator(world, config);
  const std::size_t expected = generator.num_slots();
  std::size_t emitted = 0;
  while (generator.next_slot_batch().has_value()) ++emitted;
  EXPECT_EQ(emitted, expected);
  EXPECT_GT(emitted, 1u);
}

/// Synthetic trace with an empty interior slot: requests in slots 0, 1,
/// and 3 of a 100 s grid, nothing in slot 2.
std::vector<Request> trace_with_gap() {
  std::vector<Request> requests;
  requests.push_back({1, 10, 1000, {40.0, 116.5}});
  requests.push_back({2, 11, 1030, {40.01, 116.51}});
  requests.push_back({3, 12, 1150, {40.02, 116.52}});
  requests.push_back({4, 13, 1310, {40.03, 116.53}});
  requests.push_back({5, 14, 1390, {40.04, 116.54}});
  return requests;
}

TEST(VectorSlotSource, MatchesPartitionIntoSlots) {
  const World world = small_world();
  TraceConfig config;
  config.num_requests = 3000;
  const auto trace = generate_trace(world, config);
  const auto ranges = partition_into_slots(trace, 3600);

  VectorSlotSource source(trace, 3600);
  EXPECT_EQ(source.slot_seconds(), 3600);
  std::size_t slot = 0;
  while (auto batch = source.next()) {
    ASSERT_LT(slot, ranges.size());
    EXPECT_EQ(batch->slot_index, slot);
    ASSERT_EQ(batch->requests.size(), ranges[slot].size());
    for (std::size_t i = 0; i < batch->requests.size(); ++i) {
      expect_same_request(batch->requests[i], trace[ranges[slot].begin + i],
                          ranges[slot].begin + i);
    }
    ++slot;
  }
  EXPECT_EQ(slot, ranges.size());
}

TEST(VectorSlotSource, PreservesInteriorEmptySlots) {
  const auto trace = trace_with_gap();
  VectorSlotSource source(trace, 100);
  std::vector<std::size_t> sizes;
  while (auto batch = source.next()) {
    EXPECT_EQ(batch->slot_index, sizes.size());
    sizes.push_back(batch->requests.size());
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 1, 0, 2}));
}

TEST(CsvSlotSource, MatchesVectorSlotSourceOnRoundTrippedTrace) {
  const World world = small_world();
  TraceConfig config;
  config.num_requests = 3000;
  const auto trace = generate_trace(world, config);

  std::stringstream buffer;
  write_trace_csv(buffer, trace);
  TraceReader reader(buffer);
  CsvSlotSource csv_source(reader, 3600);
  VectorSlotSource vector_source(trace, 3600);

  while (true) {
    auto expected = vector_source.next();
    auto actual = csv_source.next();
    ASSERT_EQ(expected.has_value(), actual.has_value());
    if (!expected.has_value()) break;
    EXPECT_EQ(actual->slot_index, expected->slot_index);
    ASSERT_EQ(actual->requests.size(), expected->requests.size())
        << "slot " << expected->slot_index;
    for (std::size_t i = 0; i < expected->requests.size(); ++i) {
      expect_same_request(actual->requests[i], expected->requests[i], i);
    }
  }
}

TEST(CsvSlotSource, PreservesInteriorEmptySlots) {
  std::stringstream buffer;
  write_trace_csv(buffer, trace_with_gap());
  TraceReader reader(buffer);
  CsvSlotSource source(reader, 100);
  std::vector<std::size_t> sizes;
  while (auto batch = source.next()) {
    EXPECT_EQ(batch->slot_index, sizes.size());
    sizes.push_back(batch->requests.size());
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 1, 0, 2}));
}

TEST(CsvSlotSource, EmptyTraceYieldsNoSlots) {
  std::stringstream buffer;
  write_trace_csv(buffer, {});
  TraceReader reader(buffer);
  CsvSlotSource source(reader, 3600);
  EXPECT_FALSE(source.next().has_value());
}

TEST(CsvSlotSource, RejectsUnsortedTimestampsNamingTheLine) {
  // Rows: header (line 1), t=1000 (2), t=2000 (3), t=1500 (4) <- regression.
  std::vector<Request> requests;
  requests.push_back({1, 10, 1000, {40.0, 116.5}});
  requests.push_back({2, 11, 2000, {40.01, 116.51}});
  requests.push_back({3, 12, 1500, {40.02, 116.52}});
  std::stringstream buffer;
  write_trace_csv(buffer, requests);
  TraceReader reader(buffer);
  CsvSlotSource source(reader, 100);
  try {
    while (source.next().has_value()) {
    }
    FAIL() << "expected ParseError on the unsorted row";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("line 4"), std::string::npos)
        << error.what();
  }
}

/// Sizes of every batch `source` yields, then the text of the ParseError
/// that ends it, if one does.
std::vector<std::string> batch_sizes(SlotSource& source) {
  std::vector<std::string> out;
  try {
    while (auto batch = source.next()) {
      out.push_back(std::to_string(batch->slot_index) + ":" +
                    std::to_string(batch->requests.size()));
    }
  } catch (const ParseError& error) {
    out.emplace_back(error.what());
  }
  return out;
}

/// batch_sizes of `csv` through a TraceReader, and through the file at
/// `path` (its pieces inline, then on a lent pool), which must all agree.
std::vector<std::string> csv_batch_sizes(const std::string& csv,
                                         const std::string& path,
                                         std::int64_t slot_seconds) {
  std::istringstream in(csv);
  TraceReader reader(in);
  CsvSlotSource from_reader(reader, slot_seconds);
  const std::vector<std::string> sizes = batch_sizes(from_reader);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << csv;
  }
  CsvSlotSource from_file(path, slot_seconds);
  EXPECT_EQ(batch_sizes(from_file), sizes);
  ThreadPool pool(2);
  const ThreadPool::Lend lend(pool);
  CsvSlotSource from_lent(path, slot_seconds);
  EXPECT_EQ(batch_sizes(from_lent), sizes);
  std::remove(path.c_str());
  return sizes;
}

TEST(CsvSlotSource, RowAtTheLastSecondsYieldsOneSlot) {
  // Its slot's end would lie past INT64_MAX; forming it used to wrap, and
  // next() then emitted empty slots forever.
  const std::string csv =
      "user,timestamp,video,lat,lon\n1,9223372036854775800,3,40.0,116.5\n";
  const std::string path = ::testing::TempDir() + "/ccdn_last_second.csv";
  EXPECT_EQ(csv_batch_sizes(csv, path, 3600),
            (std::vector<std::string>{"0:1"}));
}

TEST(CsvSlotSource, RejectsAnOffsetPastInt64NamingTheLine) {
  const std::string csv =
      "user,timestamp,video,lat,lon\n"
      "1,-9000000000000000000,3,40.0,116.5\n"
      "2,9000000000000000000,3,40.0,116.5\n";
  const std::string path = ::testing::TempDir() + "/ccdn_offset_past.csv";
  EXPECT_EQ(csv_batch_sizes(csv, path, 3600),
            (std::vector<std::string>{
                "trace CSV line 3: timestamp is more than 2^63 - 1 s after "
                "the first row's"}));
}

TEST(CsvSlotSource, ReadsAPipeThroughTheReader) {
  // A file that is not regular cannot be read in pieces with pread.
  std::stringstream buffer;
  write_trace_csv(buffer, trace_with_gap());
  const std::string path = ::testing::TempDir() + "/ccdn_pipe_trace.csv";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] { std::ofstream(path) << buffer.str(); });
  {
    CsvSlotSource source(path, 100);
    EXPECT_EQ(batch_sizes(source),
              (std::vector<std::string>{"0:2", "1:1", "2:0", "3:2"}));
  }
  writer.join();
  std::remove(path.c_str());
}

TEST(CsvSlotSource, DestructionWaitsForQueuedReadAhead) {
  // Sorted rows over 16 piece ranges of 128 KiB, 8,000 (176 KB) to a slot.
  std::string csv = "user,timestamp,video,lat,lon\n";
  for (std::int64_t row = 0; csv.size() < std::size_t{16} << 17; ++row) {
    csv += "1," + std::to_string(row / 2) + ",3,40.0,116.5\n";
  }
  const std::string path = ::testing::TempDir() + "/ccdn_read_ahead.csv";
  std::ofstream(path, std::ios::binary) << csv;

  ThreadPool pool(1);
  const ThreadPool::Lend lend(pool);
  auto source = std::make_unique<CsvSlotSource>(path, 4000);
  ASSERT_EQ(source->next()->requests.size(), 8000u);
  // A parse task runs after every parse task queued before it, so once
  // this one is done, every piece cut so far is parsed.
  pool.submit([] {}, ThreadPool::TaskClass::kParse).get();
  std::promise<void> open;
  std::promise<void> started;
  std::future<void> running = started.get_future();
  std::future<void> held =
      pool.submit([gate = open.get_future(), &started]() mutable {
        started.set_value();
        gate.wait();
      });
  running.wait();
  // Two more slots use parsed pieces only, and the pieces they use up are
  // cut again, their parses queued behind the held worker.
  ASSERT_EQ(source->next()->requests.size(), 8000u);
  ASSERT_EQ(source->next()->requests.size(), 8000u);

  std::atomic<bool> destroyed{false};
  std::thread destroy([&] {
    source.reset();
    destroyed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load()) << "destroyed with read-ahead still queued";
  open.set_value();
  destroy.join();
  EXPECT_TRUE(destroyed.load());
  held.get();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccdn
