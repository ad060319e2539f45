#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/generator.h"
#include "trace/world.h"
#include "util/error.h"

namespace ccdn {
namespace {

TEST(TraceIo, RoundTripPreservesFields) {
  std::vector<Request> requests(3);
  requests[0] = {7, 42, 100, {40.05, 116.5}};
  requests[1] = {8, 43, 200, {40.06123456, 116.5987654}};
  requests[2] = {9, 44, 300, {40.0, 116.4}};

  std::stringstream buffer;
  write_trace_csv(buffer, requests);
  const auto loaded = read_trace_csv(buffer);

  ASSERT_EQ(loaded.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(loaded[i].user, requests[i].user);
    EXPECT_EQ(loaded[i].video, requests[i].video);
    EXPECT_EQ(loaded[i].timestamp, requests[i].timestamp);
    EXPECT_DOUBLE_EQ(loaded[i].location.lat, requests[i].location.lat);
    EXPECT_DOUBLE_EQ(loaded[i].location.lon, requests[i].location.lon);
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  write_trace_csv(buffer, {});
  EXPECT_TRUE(read_trace_csv(buffer).empty());
}

TEST(TraceIo, RejectsMissingHeader) {
  std::istringstream in("1,2,3,4,5\n");
  EXPECT_THROW((void)read_trace_csv(in), ParseError);
}

TEST(TraceIo, RejectsWrongFieldCount) {
  std::istringstream in("user,timestamp,video,lat,lon\n1,2,3\n");
  EXPECT_THROW((void)read_trace_csv(in), ParseError);
}

TEST(TraceIo, RejectsMalformedNumbers) {
  std::istringstream in("user,timestamp,video,lat,lon\n1,2,x,4.0,5.0\n");
  EXPECT_THROW((void)read_trace_csv(in), ParseError);
}

TEST(TraceIo, GeneratedTraceRoundTrips) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = 20;
  config.num_videos = 500;
  const World world = generate_world(config);
  TraceConfig trace_config;
  trace_config.num_requests = 2000;
  const auto trace = generate_trace(world, trace_config);

  std::stringstream buffer;
  write_trace_csv(buffer, trace);
  const auto loaded = read_trace_csv(buffer);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); i += 97) {
    EXPECT_EQ(loaded[i].video, trace[i].video);
    EXPECT_EQ(loaded[i].timestamp, trace[i].timestamp);
    EXPECT_DOUBLE_EQ(loaded[i].location.lat, trace[i].location.lat);
  }
}

TEST(TraceReaderTest, StreamsRowsWithLineTracking) {
  std::vector<Request> requests(3);
  requests[0] = {7, 42, 100, {40.05, 116.5}};
  requests[1] = {8, 43, 200, {40.06, 116.59}};
  requests[2] = {9, 44, 300, {40.0, 116.4}};
  std::stringstream buffer;
  write_trace_csv(buffer, requests);

  TraceReader reader(buffer);
  std::size_t count = 0;
  while (auto request = reader.next()) {
    EXPECT_EQ(request->user, requests[count].user);
    EXPECT_EQ(request->timestamp, requests[count].timestamp);
    ++count;
    // Header is physical line 1, so row k sits on line k + 1.
    EXPECT_EQ(reader.line(), count + 1);
    EXPECT_EQ(reader.rows_read(), count);
  }
  EXPECT_EQ(count, 3u);
  EXPECT_FALSE(reader.next().has_value());  // EOF is sticky
}

TEST(TraceReaderTest, MalformedRowNamesExactLine) {
  // Line 1 header, lines 2-3 good rows, line 4 has a bad video field.
  std::istringstream in(
      "user,timestamp,video,lat,lon\n"
      "1,100,10,40.0,116.5\n"
      "2,200,11,40.1,116.6\n"
      "3,300,bogus,40.2,116.7\n");
  TraceReader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.next().has_value());
  try {
    (void)reader.next();
    FAIL() << "expected ParseError on the malformed row";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("line 4"), std::string::npos)
        << error.what();
  }
}

TEST(TraceReaderTest, WrongFieldCountNamesExactLine) {
  std::istringstream in(
      "user,timestamp,video,lat,lon\n"
      "1,100,10,40.0,116.5\n"
      "2,200,11\n");
  TraceReader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  try {
    (void)reader.next();
    FAIL() << "expected ParseError on the short row";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

/// Parse a one-row trace whose row is `row`; returns the ParseError text,
/// or "" when the row was accepted.
std::string row_error(const std::string& row) {
  std::istringstream in("user,timestamp,video,lat,lon\n"
                        "1,100,10,40.0,116.5\n" +
                        row + "\n");
  TraceReader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  try {
    (void)reader.next();
  } catch (const ParseError& error) {
    return error.what();
  }
  return "";
}

TEST(TraceReaderTest, RejectsNonFiniteCoordinates) {
  for (const char* row : {"2,200,11,nan,116.6", "2,200,11,40.1,inf",
                          "2,200,11,-inf,116.6", "2,200,11,40.1,NAN"}) {
    const std::string error = row_error(row);
    EXPECT_NE(error.find("line 3"), std::string::npos) << row << ": " << error;
    EXPECT_NE(error.find("not finite"), std::string::npos) << row;
  }
}

TEST(TraceReaderTest, RejectsIdsThatWouldWrap) {
  for (const char* row :
       {"2,200,-1,40.1,116.6", "2,200,4294967296,40.1,116.6",
        "-1,200,11,40.1,116.6", "4294967296,200,11,40.1,116.6"}) {
    const std::string error = row_error(row);
    EXPECT_NE(error.find("line 3"), std::string::npos) << row << ": " << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << row;
  }
  // The extremes of the id type still load.
  std::istringstream in("user,timestamp,video,lat,lon\n"
                        "4294967295,100,4294967295,40.0,116.5\n"
                        "0,101,0,40.0,116.5\n");
  const auto loaded = read_trace_csv(in);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].user, 4294967295u);
  EXPECT_EQ(loaded[0].video, 4294967295u);
  EXPECT_EQ(loaded[1].video, 0u);
}

TEST(TraceWriterTest, BatchedAppendsRoundTrip) {
  std::vector<Request> requests(5);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i] = {static_cast<UserId>(i), static_cast<VideoId>(100 + i),
                   static_cast<std::int64_t>(1000 + 50 * i),
                   {40.0 + 0.01 * static_cast<double>(i), 116.5}};
  }
  std::stringstream buffer;
  {
    TraceWriter writer(buffer);
    writer.append(std::span<const Request>(requests).subspan(0, 2));
    writer.append(std::span<const Request>(requests).subspan(2, 0));
    writer.append(std::span<const Request>(requests).subspan(2));
    EXPECT_EQ(writer.rows_written(), requests.size());
  }
  // Three flushed batches (one empty) must equal one monolithic write.
  std::stringstream monolithic;
  write_trace_csv(monolithic, requests);
  EXPECT_EQ(buffer.str(), monolithic.str());
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ccdn_trace_test.csv";
  std::vector<Request> requests(2);
  requests[0] = {1, 2, 3, {40.0, 116.5}};
  requests[1] = {4, 5, 6, {40.1, 116.6}};
  write_trace_csv(path, requests);
  const auto loaded = read_trace_csv(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].user, 4u);
  EXPECT_THROW((void)read_trace_csv("/nonexistent/path.csv"), Error);
}

}  // namespace
}  // namespace ccdn
