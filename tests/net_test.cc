// Network front door tests: BNW1 codec round trips, malformed-input
// robustness, loopback correctness vs the in-process engine, pipelining,
// disconnect-as-cancellation, backpressure, tenant admission over the
// wire, and the HTTP JSON adapter.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/wire_json.h"
#include "service/beas_service.h"
#include "storage/string_dict.h"
#include "test_util.h"

namespace beas {
namespace net {
namespace {

std::vector<std::string> RowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

using testing_util::ToHex;

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

// ---------------------------------------------------------------------------
// Pinned fixtures: every field and every value type, shared by the
// format-pinning and truncation tests.
// ---------------------------------------------------------------------------

QueryRequest PinnedQueryRequest() {
  QueryRequest request;
  request.sql = "SELECT t.v FROM t WHERE t.k = 7";
  request.mode = QueryMode::kApproximate;
  request.tenant = "alpha";
  request.approx_budget = 123;
  request.options.timeout_millis = 250;
  request.options.fetch_budget = 64;
  request.options.min_eta = 0.5;
  return request;
}

/// `dict` backs the string cell of the first row and must outlive it.
InsertRequest PinnedInsertRequest(StringDict* dict) {
  InsertRequest request;
  request.table = "mixed";
  request.rows.push_back({Value::Null(), Value::Int64(-5), Value::Double(2.75),
                          Value::DictString(dict, dict->Intern("cell")),
                          Value::Date(20160315)});
  request.rows.push_back({Value::Int64(7), Value::String("x")});
  return request;
}

WireResponse PinnedOkResponse() {
  WireResponse response;
  QueryResponse& r = response.response;
  r.cache_hit = true;
  r.covered = true;
  r.result_cache_hit = true;
  r.eta = 0.75;
  r.template_hash = 0x0123456789abcdefULL;
  r.decision.mode = BeasSession::ExecutionDecision::Mode::kBounded;
  r.decision.deduced_bound = 500;
  r.decision.explanation = "bounded";
  r.reason = "ok";
  r.approx_budget = 9;
  r.tuples_fetched = 3;
  r.result.column_names = {"k", "v"};
  r.result.column_types = {TypeId::kInt64, TypeId::kString};
  r.result.rows.push_back({Value::Int64(1), Value::String("x")});
  r.result.rows.push_back({Value::Null(), Value::String("yz")});
  return response;
}

// ---------------------------------------------------------------------------
// Format pins. Round trips cannot catch a symmetric change to the
// encoder and decoder; these bytes can.
// ---------------------------------------------------------------------------

TEST(ProtocolTest, QueryRequestFrameBytesArePinned) {
  EXPECT_EQ(ToHex(EncodeQueryRequestFrame(42, PinnedQueryRequest())),
            "424e5731" "01" "00" "0000" "2a000000" "4d000000"  // header
            "02"                                              // mode
            "7b00000000000000"                                // approx_budget
            "fa00000000000000"                                // timeout_millis
            "4000000000000000"                                // fetch_budget
            "000000000000e03f"                                // min_eta
            "05000000" "616c706861"                           // tenant
            "1f000000" "53454c45435420742e762046524f4d2074"   // sql
            "20574845524520742e6b203d2037");
}

TEST(ProtocolTest, InsertFrameBytesArePinned) {
  StringDict dict;
  EXPECT_EQ(ToHex(EncodeInsertRequestFrame(7, PinnedInsertRequest(&dict))),
            "424e5731" "02" "00" "0000" "07000000" "45000000"  // header
            "05000000" "6d69786564"                           // table
            "02000000"                                        // row count
            "0500"                                            // row 0 arity
            "00"                                              // null
            "01" "fbffffffffffffff"                           // int64
            "02" "0000000000000640"                           // double
            "03" "04000000" "63656c6c"                        // dict string
            "04" "3b9f330100000000"                           // date
            "0200"                                            // row 1 arity
            "01" "0700000000000000"                           // int64
            "03" "01000000" "78");                            // string

}

TEST(ProtocolTest, ResponseFrameBytesArePinned) {
  EXPECT_EQ(ToHex(EncodeResponseFrame(9, PinnedOkResponse())),
            "424e5731" "81" "00" "0000" "09000000" "71000000"  // header
            "00"                                              // status code
            "93"                                              // flags
            "000000000000e83f"                                // eta
            "efcdab8967452301"                                // template_hash
            "00"                                              // decision mode
            "f401000000000000"                                // deduced_bound
            "07000000" "626f756e646564"                       // explanation
            "02000000" "6f6b"                                 // reason
            "0900000000000000"                                // approx_budget
            "0300000000000000"                                // tuples_fetched
            "0000000000000000"                                // rows_inserted
            "0200"                                            // column count
            "01000000" "6b" "01"                              // k INT
            "01000000" "76" "03"                              // v STRING
            "02000000"                                        // row count
            "0200" "01" "0100000000000000" "03" "01000000" "78"
            "0200" "00" "03" "02000000" "797a");
  WireResponse error;
  error.status = Status::ResourceExhausted("tenant cap exhausted");
  EXPECT_EQ(ToHex(EncodeResponseFrame(3, error)),
            "424e5731" "81" "00" "0000" "03000000" "19000000"  // header
            "0f"                                              // status code
            "14000000" "74656e616e7420636170206578686175737465"
            "64");
}

// ---------------------------------------------------------------------------
// Codec round trips.
// ---------------------------------------------------------------------------

TEST(ProtocolTest, QueryRequestRoundTrip) {
  QueryRequest request;
  request.sql = "SELECT t.v FROM t WHERE t.k = 7";
  request.mode = QueryMode::kBoundedOnly;
  request.tenant = "alpha";
  request.approx_budget = 123;
  request.options.timeout_millis = 250;
  request.options.fetch_budget = 64;
  request.options.min_eta = 0.5;

  std::string frame = EncodeQueryRequestFrame(42, request);
  ASSERT_GE(frame.size(), kFrameHeaderSize);
  auto header = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size());
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->kind, FrameKind::kQueryRequest);
  EXPECT_EQ(header->request_id, 42u);
  EXPECT_EQ(header->payload_len, frame.size() - kFrameHeaderSize);

  auto decoded = DecodeQueryRequest(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
      header->payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sql, request.sql);
  EXPECT_EQ(decoded->mode, QueryMode::kBoundedOnly);
  EXPECT_EQ(decoded->tenant, "alpha");
  EXPECT_EQ(decoded->approx_budget, 123u);
  EXPECT_EQ(decoded->options.timeout_millis, 250);
  EXPECT_EQ(decoded->options.fetch_budget, 64u);
  EXPECT_DOUBLE_EQ(decoded->options.min_eta, 0.5);
  // The cancellation token never serializes.
  EXPECT_EQ(decoded->options.cancel, nullptr);
}

TEST(ProtocolTest, InsertRequestRoundTripAllValueTypes) {
  InsertRequest request;
  request.table = "mixed";
  request.rows.push_back({Value::Null(), Value::Int64(-5),
                          Value::Double(2.75), Value::String("héllo"),
                          Value::DateFromString("2016-03-15").ValueOrDie()});
  std::string frame = EncodeInsertRequestFrame(7, request);
  auto header = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size());
  ASSERT_TRUE(header.ok());
  auto decoded = DecodeInsertRequest(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
      header->payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->table, "mixed");
  ASSERT_EQ(decoded->rows.size(), 1u);
  ASSERT_EQ(decoded->rows[0].size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(decoded->rows[0][i].Equals(request.rows[0][i])) << i;
  }
}

TEST(ProtocolTest, ResponseRoundTripCarriesEnvelope) {
  WireResponse response;
  response.status = Status::OK();
  response.response.eta = 0.75;
  response.response.degraded = true;
  response.response.covered = true;
  response.response.decision.deduced_bound = 500;
  response.response.decision.explanation = "bounded plan";
  response.response.result.column_names = {"k", "v"};
  response.response.result.column_types = {TypeId::kInt64, TypeId::kString};
  response.response.result.rows.push_back(
      {Value::Int64(1), Value::String("x")});

  std::string frame = EncodeResponseFrame(9, response);
  auto header = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->kind, FrameKind::kResponse);
  auto decoded = DecodeResponse(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
      header->payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_DOUBLE_EQ(decoded->response.eta, 0.75);
  EXPECT_TRUE(decoded->response.degraded);
  EXPECT_TRUE(decoded->response.covered);
  EXPECT_EQ(decoded->response.decision.deduced_bound, 500u);
  EXPECT_EQ(decoded->response.decision.explanation, "bounded plan");
  ASSERT_EQ(decoded->response.result.rows.size(), 1u);
  EXPECT_TRUE(decoded->response.result.rows[0][1].Equals(Value::String("x")));
}

TEST(ProtocolTest, ResultCacheHitFlagRoundTrips) {
  for (bool hit : {false, true}) {
    WireResponse response;
    response.status = Status::OK();
    response.response.covered = true;
    response.response.result_cache_hit = hit;
    std::string frame = EncodeResponseFrame(3, response);
    auto header = DecodeFrameHeader(
        reinterpret_cast<const uint8_t*>(frame.data()), frame.size());
    ASSERT_TRUE(header.ok());
    auto decoded = DecodeResponse(
        reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
        header->payload_len);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->response.result_cache_hit, hit);
    EXPECT_TRUE(decoded->response.covered);
  }
}

TEST(ProtocolTest, ErrorResponsePreservesStatusCode) {
  WireResponse response;
  response.status = Status::ResourceExhausted("tenant cap exhausted");
  std::string frame = EncodeResponseFrame(3, response);
  auto decoded = DecodeResponse(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
      frame.size() - kFrameHeaderSize);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "tenant cap exhausted");
}

TEST(ProtocolTest, HeaderRejectsBadMagicAndOversizedPayload) {
  FrameHeader header;
  header.kind = FrameKind::kPing;
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(header, buf);
  buf[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(buf, sizeof(buf)).ok());

  EncodeFrameHeader(header, buf);
  uint32_t huge = kMaxWirePayload + 1;
  std::memcpy(buf + 12, &huge, sizeof(huge));
  EXPECT_FALSE(DecodeFrameHeader(buf, sizeof(buf)).ok());

  EncodeFrameHeader(header, buf);
  EXPECT_FALSE(DecodeFrameHeader(buf, kFrameHeaderSize - 1).ok());
}

TEST(ProtocolTest, TruncatedPayloadsYieldTypedErrorsNotCrashes) {
  QueryRequest request;
  request.sql = "SELECT t.v FROM t WHERE t.k = 1";
  request.tenant = "alpha";
  std::string frame = EncodeQueryRequestFrame(1, request);
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  size_t len = frame.size() - kFrameHeaderSize;
  // Every proper prefix must decode to an error, never read out of bounds
  // (ASan enforces the latter).
  for (size_t cut = 0; cut < len; ++cut) {
    EXPECT_FALSE(DecodeQueryRequest(payload, cut).ok()) << "cut=" << cut;
  }
  // A row count that lies about the payload size must be rejected without
  // allocating terabytes. The row-count u32 sits right after the table
  // string (u32 length + bytes).
  InsertRequest insert;
  insert.table = "t";
  insert.rows.push_back({Value::Int64(1)});
  std::string iframe = EncodeInsertRequestFrame(2, insert);
  std::string mutated = iframe.substr(kFrameHeaderSize);
  uint32_t lie = 0x7fffffff;
  std::memcpy(&mutated[4 + insert.table.size()], &lie, sizeof(lie));
  EXPECT_FALSE(
      DecodeInsertRequest(reinterpret_cast<const uint8_t*>(mutated.data()),
                          mutated.size())
          .ok());

  // Every proper prefix of the all-types insert and of the OK response
  // with rows: each cut lands mid-field somewhere in the value codec.
  StringDict dict;
  std::string ipayload = EncodeInsertRequestFrame(7, PinnedInsertRequest(&dict))
                             .substr(kFrameHeaderSize);
  for (size_t cut = 0; cut < ipayload.size(); ++cut) {
    auto decoded = DecodeInsertRequest(Bytes(ipayload), cut);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << cut;
  }
  std::string rpayload =
      EncodeResponseFrame(9, PinnedOkResponse()).substr(kFrameHeaderSize);
  for (size_t cut = 0; cut < rpayload.size(); ++cut) {
    auto decoded = DecodeResponse(Bytes(rpayload), cut);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << cut;
  }
}

TEST(ProtocolTest, UnknownColumnTypeByteIsRejected) {
  WireResponse response = PinnedOkResponse();
  response.response.result.column_types[1] = static_cast<TypeId>(0x77);
  std::string payload =
      EncodeResponseFrame(9, response).substr(kFrameHeaderSize);
  auto decoded = DecodeResponse(Bytes(payload), payload.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, OversizedResponseBecomesTypedError) {
  // One cell as large as the protocol ceiling: the frame it would need
  // is one every decoder rejects, so the encoder answers with an error.
  WireResponse response;
  response.response.result.column_names = {"blob"};
  response.response.result.column_types = {TypeId::kString};
  Row row;
  row.push_back(Value::String(std::string(kMaxWirePayload, 'x')));
  response.response.result.rows.push_back(std::move(row));
  std::string frame = EncodeResponseFrame(5, response);
  response.response.result.rows.clear();

  auto header = DecodeFrameHeader(Bytes(frame), frame.size());
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->kind, FrameKind::kResponse);
  EXPECT_EQ(header->request_id, 5u);
  ASSERT_EQ(header->payload_len, frame.size() - kFrameHeaderSize);
  auto decoded =
      DecodeResponse(Bytes(frame) + kFrameHeaderSize, header->payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded->status.message().find(
                "exceeds the protocol ceiling of " +
                std::to_string(kMaxWirePayload)),
            std::string::npos)
      << decoded->status.message();
}

// ---------------------------------------------------------------------------
// JSON adapter pieces.
// ---------------------------------------------------------------------------

TEST(WireJsonTest, ParsesAndEscapes) {
  auto doc = ParseJson(
      "{\"sql\":\"SELECT 1\",\"rows\":[[1,2.5,null,\"a\\\"b\"]],\"n\":-3}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->Get("sql") != nullptr);
  EXPECT_EQ(doc->Get("sql")->str, "SELECT 1");
  EXPECT_EQ(doc->Get("n")->inum, -3);
  const Json& cell = doc->Get("rows")->items[0].items[3];
  EXPECT_EQ(cell.str, "a\"b");
  EXPECT_EQ(JsonEscape("a\"b\n"), "a\\\"b\\n");
  EXPECT_FALSE(ParseJson("{\"unterminated\":").ok());
  EXPECT_FALSE(ParseJson("[[[[[[[[[").ok());
}

TEST(WireJsonTest, RendersErrorTaxonomy) {
  WireResponse response;
  response.status = Status::NotCovered("plan not covered");
  std::string body = RenderResponseJson(response);
  EXPECT_NE(body.find("\"code\":\"NOT_COVERED\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"http\":422"), std::string::npos) << body;
}

// ---------------------------------------------------------------------------
// Loopback server fixture.
// ---------------------------------------------------------------------------

constexpr int kKeys = 16;
constexpr int kFanout = 6;
constexpr uint64_t kDeclaredBound = 32;

std::string KeyQuery(int k) {
  return "SELECT t.v FROM t WHERE t.k = " + std::to_string(k);
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions options;
    options.num_workers = 2;
    Configure(&options);
    service_ = std::make_unique<BeasService>(options);
    ASSERT_TRUE(service_
                    ->CreateTable("t", Schema({{"k", TypeId::kInt64},
                                               {"v", TypeId::kInt64}}))
                    .ok());
    std::vector<Row> rows;
    for (int k = 0; k < kKeys; ++k) {
      for (int f = 0; f < kFanout; ++f) {
        rows.push_back({Value::Int64(k), Value::Int64(k * 100 + f)});
      }
    }
    ASSERT_TRUE(service_->InsertBatch("t", std::move(rows)).ok());
    ASSERT_TRUE(service_
                    ->RegisterConstraint(AccessConstraint{
                        "acc_t", "t", {"k"}, {"v"}, kDeclaredBound})
                    .ok());

    ServerOptions server_options;
    ConfigureServer(&server_options);
    server_ = std::make_unique<Server>(service_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    fail::ArmForTesting("");
    if (server_ != nullptr) server_->Stop();
  }

  /// Subclass hooks for admission/backpressure variants.
  virtual void Configure(ServiceOptions*) {}
  virtual void ConfigureServer(ServerOptions*) {}

  Client ConnectedClient() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  std::unique_ptr<BeasService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetTest, PingAndQueryMatchInProcessAnswers) {
  Client client = ConnectedClient();
  ASSERT_TRUE(client.Ping().ok());
  for (int k = 0; k < kKeys; ++k) {
    auto reference = service_->Query({KeyQuery(k)});
    ASSERT_TRUE(reference.ok());
    QueryRequest request;
    request.sql = KeyQuery(k);
    request.tenant = "alpha";
    auto wire = client.Query(request);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(RowStrings(wire->result.rows),
              RowStrings(reference->result.rows))
        << "k=" << k;
    EXPECT_FALSE(wire->degraded);
    EXPECT_DOUBLE_EQ(wire->eta, 1.0);
  }
}

TEST_F(NetTest, InsertOverWireIsVisibleToQueries) {
  Client client = ConnectedClient();
  std::vector<Row> rows;
  for (int f = 0; f < 3; ++f) {
    rows.push_back({Value::Int64(900), Value::Int64(90000 + f)});
  }
  auto acked = client.Insert("t", rows);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(*acked, 3u);
  QueryRequest request;
  request.sql = KeyQuery(900);
  auto wire = client.Query(request);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->result.rows.size(), 3u);
  auto missing = client.Insert("no_such_table", rows);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(NetTest, TypedErrorsComeBackOverTheWire) {
  Client client = ConnectedClient();
  QueryRequest request;
  request.sql = "SELECT nope FROM";
  auto wire = client.Query(request);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), StatusCode::kParseError);
  // The connection survives a per-request error.
  ASSERT_TRUE(client.Ping().ok());
  // check mode on an uncovered query reports rather than errors.
  QueryRequest check;
  check.sql = "SELECT t.v FROM t WHERE t.v = 5";
  check.mode = QueryMode::kCheckOnly;
  auto verdict = client.Query(check);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_FALSE(verdict->covered);
  EXPECT_FALSE(verdict->reason.empty());
}

TEST_F(NetTest, Int64MinDividedByMinusOneDoesNotKillTheServer) {
  // INT64_MIN / -1 and INT64_MIN % -1 trap in hardware (SIGFPE) unless the
  // arithmetic kernel handles them; one such request must not take the
  // server down.
  Client client = ConnectedClient();
  const struct {
    const char* sql;
    bool null;
  } cases[] = {
      {"SELECT (0 - 9223372036854775807 - 1) / -1 FROM t WHERE t.k = 2", true},
      {"SELECT (0 - 9223372036854775807 - 1) % -1 FROM t WHERE t.k = 2",
       false},
  };
  for (const auto& c : cases) {
    QueryRequest request;
    request.sql = c.sql;
    auto wire = client.Query(request);
    ASSERT_TRUE(wire.ok()) << c.sql << ": " << wire.status().ToString();
    ASSERT_EQ(wire->result.rows.size(), static_cast<size_t>(kFanout));
    for (const Row& row : wire->result.rows) {
      if (c.null) {
        EXPECT_TRUE(row[0].is_null()) << c.sql;
      } else {
        EXPECT_EQ(row[0], Value::Int64(0)) << c.sql;
      }
    }
  }
  ASSERT_TRUE(client.Ping().ok());
  QueryRequest after;
  after.sql = KeyQuery(2);
  auto answer = client.Query(after);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->result.rows.size(), static_cast<size_t>(kFanout));
}

TEST_F(NetTest, GarbageFramingClosesOnlyThatConnection) {
  // Raw garbage on one connection: the server must drop it without
  // disturbing a well-behaved neighbour.
  Client good = ConnectedClient();
  ASSERT_TRUE(good.Ping().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "\xde\xad\xbe\xef garbage that is not a frame";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  // The server answers nothing (or an error frame) and closes.
  char buf[256];
  for (;;) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
  }
  ::close(fd);

  // A frame header lying about its payload length (over the server
  // ceiling) is also a framing error.
  FrameHeader header;
  header.kind = FrameKind::kQueryRequest;
  header.request_id = 1;
  header.payload_len = kMaxRequestPayload + 1;
  uint8_t raw[kFrameHeaderSize];
  EncodeFrameHeader(header, raw);
  int fd2 = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_GT(::send(fd2, raw, sizeof(raw), MSG_NOSIGNAL), 0);
  for (;;) {
    ssize_t r = ::recv(fd2, buf, sizeof(buf), 0);
    if (r <= 0) break;
  }
  ::close(fd2);

  // The neighbour is still being served.
  ASSERT_TRUE(good.Ping().ok());
  QueryRequest request;
  request.sql = KeyQuery(1);
  EXPECT_TRUE(good.Query(request).ok());
}

TEST_F(NetTest, UndecodablePayloadGetsTypedErrorAndConnectionLives) {
  Client client = ConnectedClient();
  // A well-framed kQueryRequest whose payload is junk: per-request error,
  // connection keeps working.
  FrameHeader header;
  header.kind = FrameKind::kQueryRequest;
  header.request_id = 77;
  header.payload_len = 3;
  uint8_t raw[kFrameHeaderSize + 3];
  EncodeFrameHeader(header, raw);
  raw[kFrameHeaderSize + 0] = 0xff;
  raw[kFrameHeaderSize + 1] = 0xff;
  raw[kFrameHeaderSize + 2] = 0xff;
  // Borrow the client's connection by sending through a parallel raw
  // socket? No — send through the same connection via SendQuery's fd is
  // private, so drive the whole exchange raw.
  client.Close();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_GT(::send(fd, raw, sizeof(raw), MSG_NOSIGNAL), 0);
  // Expect a typed error response frame for id 77.
  uint8_t rhead[kFrameHeaderSize];
  size_t got = 0;
  while (got < sizeof(rhead)) {
    ssize_t r = ::recv(fd, rhead + got, sizeof(rhead) - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<size_t>(r);
  }
  auto decoded_header = DecodeFrameHeader(rhead, sizeof(rhead));
  ASSERT_TRUE(decoded_header.ok());
  EXPECT_EQ(decoded_header->request_id, 77u);
  std::vector<uint8_t> payload(decoded_header->payload_len);
  got = 0;
  while (got < payload.size()) {
    ssize_t r = ::recv(fd, payload.data() + got, payload.size() - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<size_t>(r);
  }
  auto response = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->status.ok());

  // Same connection still answers a valid ping.
  std::string ping = EncodePingFrame(78);
  ASSERT_GT(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL), 0);
  got = 0;
  while (got < sizeof(rhead)) {
    ssize_t r = ::recv(fd, rhead + got, sizeof(rhead) - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<size_t>(r);
  }
  decoded_header = DecodeFrameHeader(rhead, sizeof(rhead));
  ASSERT_TRUE(decoded_header.ok());
  EXPECT_EQ(decoded_header->request_id, 78u);
  ::close(fd);
}

TEST_F(NetTest, ConcurrentClientsMatchReference) {
  // Reference answers computed in-process before the storm.
  std::map<int, std::vector<std::string>> reference;
  for (int k = 0; k < kKeys; ++k) {
    auto r = service_->Query({KeyQuery(k)});
    ASSERT_TRUE(r.ok());
    reference[k] = RowStrings(r->result.rows);
  }
  constexpr int kClients = 8;
  constexpr int kIters = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        mismatches.fetch_add(1000);
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        int k = (c * 7 + i * 3) % kKeys;
        QueryRequest request;
        request.sql = KeyQuery(k);
        request.tenant = (c % 2 == 0) ? "alpha" : "beta";
        auto wire = client.Query(request);
        if (!wire.ok() ||
            RowStrings(wire->result.rows) != reference[k]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Gauges moved; admission fully drained.
  EXPECT_GE(service_->net_gauges()->requests_total.load(),
            static_cast<uint64_t>(kClients * kIters));
  EXPECT_GT(service_->net_gauges()->bytes_in_total.load(), 0u);
  EXPECT_GT(service_->net_gauges()->bytes_out_total.load(), 0u);
  EXPECT_EQ(service_->service_counters().inflight_cost, 0u);
  EXPECT_EQ(service_->tenant_counters("beta").inflight_cost, 0u);
  EXPECT_GT(service_->tenant_counters("beta").requests_total, 0u);
}

TEST_F(NetTest, ResultCacheHitsShortCircuitOverTheWire) {
  Client client = ConnectedClient();
  QueryRequest request;
  request.sql = KeyQuery(3);
  auto cold = client.Query(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->result_cache_hit);
  auto warm = client.Query(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cache_hit);
  EXPECT_EQ(RowStrings(warm->result.rows), RowStrings(cold->result.rows));
  EXPECT_GE(service_->net_gauges()->result_cache_hits.load(), 1u);

  // A write over the wire invalidates over the wire.
  auto acked = client.Insert("t", {{Value::Int64(3), Value::Int64(399)}});
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  auto fresh = client.Query(request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->result_cache_hit);
  EXPECT_EQ(fresh->result.rows.size(), cold->result.rows.size() + 1);
}

TEST_F(NetTest, InvalidationRaceHammerNeverServesStaleAnswers) {
  // One writer appends v = 1000, 1001, ... under a fresh key while reader
  // threads storm the same template over loopback. Every served answer —
  // cached or not — must be a contiguous prefix [1000, 1000+m) with m
  // bracketed by the writer's progress: at least everything acked before
  // the read was sent, at most everything started by the time the answer
  // arrived. A stale cache hit after an acked insert lands below the
  // bracket and fails the test.
  constexpr int kHammerKey = 700;
  constexpr int kInserts = 30;  // stays under the declared bound of 32
  constexpr int kReaders = 4;
  std::atomic<int> started{0};
  std::atomic<int> acked{0};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> wire_hits{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        violations.fetch_add(1000);
        return;
      }
      QueryRequest request;
      request.sql = KeyQuery(kHammerKey);
      while (!done.load(std::memory_order_acquire)) {
        int lo = acked.load(std::memory_order_acquire);
        auto resp = client.Query(request);
        int hi = started.load(std::memory_order_acquire);
        if (!resp.ok()) {
          violations.fetch_add(1000);
          return;
        }
        if (resp->result_cache_hit) wire_hits.fetch_add(1);
        std::vector<int64_t> got;
        got.reserve(resp->result.rows.size());
        for (const Row& row : resp->result.rows) {
          got.push_back(row[0].AsInt64());
        }
        std::sort(got.begin(), got.end());
        int m = static_cast<int>(got.size());
        bool prefix = true;
        for (int i = 0; i < m; ++i) prefix &= got[i] == 1000 + i;
        if (!prefix || m < lo || m > hi) violations.fetch_add(1);
      }
    });
  }

  {
    Client writer = ConnectedClient();
    for (int i = 0; i < kInserts; ++i) {
      started.fetch_add(1, std::memory_order_acq_rel);
      auto ack = writer.Insert("t", {{Value::Int64(kHammerKey),
                                      Value::Int64(1000 + i)}});
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      acked.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Quiesced, the final answer matches a fresh uncached evaluation and the
  // cache serves it.
  Client client = ConnectedClient();
  QueryRequest request;
  request.sql = KeyQuery(kHammerKey);
  auto a1 = client.Query(request);
  auto a2 = client.Query(request);
  ASSERT_TRUE(a1.ok() && a2.ok());
  EXPECT_TRUE(a2->result_cache_hit);
  EXPECT_EQ(a2->result.rows.size(), static_cast<size_t>(kInserts));
  EXPECT_EQ(RowStrings(a2->result.rows), RowStrings(a1->result.rows));
  service_->set_result_cache_enabled(false);
  auto uncached = client.Query(request);
  service_->set_result_cache_enabled(true);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(RowStrings(a2->result.rows), RowStrings(uncached->result.rows));
}

TEST_F(NetTest, PipelinedRequestsCorrelateByRequestId) {
  Client client = ConnectedClient();
  std::map<uint32_t, int> sent;  // request id -> key
  for (int i = 0; i < 12; ++i) {
    QueryRequest request;
    int k = (i * 5) % kKeys;
    request.sql = KeyQuery(k);
    auto id = client.SendQuery(request);
    ASSERT_TRUE(id.ok());
    sent[*id] = k;
  }
  for (int i = 0; i < 12; ++i) {
    auto reply = client.ReadResponse();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto it = sent.find(reply->first);
    ASSERT_NE(it, sent.end());
    ASSERT_TRUE(reply->second.status.ok());
    auto reference = service_->Query({KeyQuery(it->second)});
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(RowStrings(reply->second.response.result.rows),
              RowStrings(reference->result.rows));
    sent.erase(it);
  }
  EXPECT_TRUE(sent.empty());
}

TEST_F(NetTest, DisconnectMidQueryCancelsAndReleasesAdmission) {
  // Hold every execution step open so the query is guaranteed to still be
  // running when the client vanishes.
  fail::ArmForTesting("exec_step=sleep(20)@*");
  {
    Client client = ConnectedClient();
    QueryRequest request;
    request.sql = KeyQuery(3);
    ASSERT_TRUE(client.SendQuery(request).ok());
    // Give the dispatcher time to admit and start executing, then vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    client.Close();
  }
  fail::ArmForTesting("");
  // Cancellation must propagate and the admission cost must drain to zero
  // even though no response was ever delivered.
  for (int i = 0; i < 200; ++i) {
    if (service_->service_counters().inflight_cost == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(service_->service_counters().inflight_cost, 0u);
  EXPECT_EQ(service_->tenant_counters("").inflight_cost, 0u);
  // The server is still healthy for new clients.
  Client after = ConnectedClient();
  EXPECT_TRUE(after.Ping().ok());
  QueryRequest request;
  request.sql = KeyQuery(3);
  EXPECT_TRUE(after.Query(request).ok());
}

/// The process's virtual memory size in kB (VmSize in /proc/self/status).
size_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST_F(NetTest, ClosedConnectionsReleaseTheirReaderThreads) {
  // Each connection gets a reader thread. A finished reader that is never
  // joined keeps its stack mapped (8 MB of address space by default)
  // until Stop(), so sequential short connections would grow the server
  // without bound.
  auto all_closed = [&] {
    for (int i = 0; i < 1000; ++i) {
      if (service_->net_gauges()->connections_open.load() == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };
  // Warm-up settles one-time growth: eight readers at once make the
  // allocator map the per-thread arenas (64 MB of address space each)
  // that a few briefly overlapping readers below will reuse.
  {
    std::vector<Client> warm;
    for (int i = 0; i < 8; ++i) {
      warm.push_back(ConnectedClient());
      ASSERT_TRUE(warm.back().Ping().ok());
    }
  }
  ASSERT_TRUE(all_closed());
  const size_t before_kb = VmSizeKb();
  ASSERT_GT(before_kb, 0u);
  for (int i = 0; i < 200; ++i) {
    Client client = ConnectedClient();
    ASSERT_TRUE(client.Ping().ok()) << "connection " << i;
    client.Close();
  }
  ASSERT_TRUE(all_closed());
  const size_t after_kb = VmSizeKb();
  EXPECT_LT(after_kb, before_kb + 64 * 1024)
      << "VmSize grew from " << before_kb << " kB to " << after_kb
      << " kB over 200 closed connections";
}

// ---------------------------------------------------------------------------
// Backpressure: a slow write path must stall the reader (bounded
// per-connection in-flight), not balloon the dispatch queue or deadlock.
// ---------------------------------------------------------------------------

class NetBackpressureTest : public NetTest {
 protected:
  void ConfigureServer(ServerOptions* options) override {
    options->max_inflight_per_connection = 2;
    options->num_dispatchers = 2;
  }
};

TEST_F(NetBackpressureTest, SlowWritesThrottleWithoutLossOrDeadlock) {
  fail::ArmForTesting("net_write_response=sleep(10)@*");
  Client client = ConnectedClient();
  constexpr int kRequests = 24;
  std::map<uint32_t, int> sent;
  std::thread sender([&] {
    for (int i = 0; i < kRequests; ++i) {
      QueryRequest request;
      int k = i % kKeys;
      request.sql = KeyQuery(k);
      auto id = client.SendQuery(request);
      ASSERT_TRUE(id.ok());
      sent[*id] = k;
    }
  });
  sender.join();  // all frames written (kernel buffers hold them)
  int ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto reply = client.ReadResponse();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->second.status.ok());
    ++ok;
  }
  EXPECT_EQ(ok, kRequests);
  fail::ArmForTesting("");
}

// ---------------------------------------------------------------------------
// Tenant admission over the wire.
// ---------------------------------------------------------------------------

class NetTenantTest : public NetTest {
 protected:
  void Configure(ServiceOptions* options) override {
    // Global pool is roomy; beta's cap equals one declared bound, so a
    // second concurrent beta query must be rejected and a lone beta query
    // with the cap half-used must be degraded.
    options->max_inflight_cost = 16 * kDeclaredBound;
    options->tenant_cost_caps["beta"] = kDeclaredBound;
  }
};

TEST_F(NetTenantTest, OverBudgetTenantGetsTypedRejection) {
  // Hold beta's whole cap in-process, then hit the wire as beta: the
  // request must come back kResourceExhausted, typed, while alpha sails
  // through.
  fail::ArmForTesting("exec_step=sleep(50)@*");
  std::thread holder([&] {
    QueryRequest request;
    request.sql = KeyQuery(1);
    request.tenant = "beta";
    (void)service_->Query(request);
  });
  // Wait until the holder's admission is visible.
  for (int i = 0; i < 200; ++i) {
    if (service_->tenant_counters("beta").inflight_cost >= kDeclaredBound) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(service_->tenant_counters("beta").inflight_cost, kDeclaredBound);

  Client client = ConnectedClient();
  QueryRequest rejected;
  rejected.sql = KeyQuery(2);
  rejected.tenant = "beta";
  auto wire = client.Query(rejected);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(wire.status().message().find("tenant"), std::string::npos)
      << wire.status().message();

  QueryRequest fine;
  fine.sql = KeyQuery(2);
  fine.tenant = "alpha";
  auto alpha = client.Query(fine);
  EXPECT_TRUE(alpha.ok()) << alpha.status().ToString();

  fail::ArmForTesting("");
  holder.join();
  EXPECT_GE(service_->tenant_counters("beta").rejected_total, 1u);
  EXPECT_EQ(service_->tenant_counters("beta").inflight_cost, 0u);
}

// ---------------------------------------------------------------------------
// HTTP JSON adapter on the same port.
// ---------------------------------------------------------------------------

std::string HttpExchange(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t r = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (r <= 0) break;
    sent += static_cast<size_t>(r);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    out.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return out;
}

TEST_F(NetTest, HttpAdapterServesJsonOnTheSamePort) {
  std::string body = "{\"sql\":\"" + KeyQuery(4) + "\",\"tenant\":\"alpha\"}";
  std::string request =
      "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  std::string reply = HttpExchange(server_->port(), request);
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"status\":\"OK\""), std::string::npos) << reply;
  EXPECT_NE(reply.find(std::to_string(4 * 100)), std::string::npos) << reply;

  // Typed errors surface with taxonomy fields and the mapped HTTP code.
  std::string bad_body = "{\"sql\":\"SELECT broken FROM\"}";
  std::string bad =
      "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(bad_body.size()) + "\r\nConnection: close\r\n\r\n" +
      bad_body;
  reply = HttpExchange(server_->port(), bad);
  EXPECT_NE(reply.find("HTTP/1.1 400"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"code\":\"PARSE_ERROR\""), std::string::npos)
      << reply;

  reply = HttpExchange(server_->port(),
                       "GET /ping HTTP/1.1\r\nHost: x\r\n"
                       "Connection: close\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;

  reply = HttpExchange(server_->port(),
                       "GET /nope HTTP/1.1\r\nHost: x\r\n"
                       "Connection: close\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 404"), std::string::npos) << reply;

  // Insert via JSON, then read the rows back.
  std::string ins_body =
      "{\"table\":\"t\",\"rows\":[[700,70000],[700,70001]]}";
  std::string ins =
      "POST /insert HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(ins_body.size()) + "\r\nConnection: close\r\n\r\n" +
      ins_body;
  reply = HttpExchange(server_->port(), ins);
  EXPECT_NE(reply.find("\"rows_inserted\":2"), std::string::npos) << reply;
}

}  // namespace
}  // namespace net
}  // namespace beas
