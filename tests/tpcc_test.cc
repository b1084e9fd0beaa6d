// TPC-C subsystem tests: contract semantics (NewOrder sequencing and
// invalid-item rollback, Payment balance maths, Delivery backlog
// consumption, read-only transactions, refused malformed input), the
// row and key codec against the encoders it replaced, workload mix
// shape, and the determinism regression (bitwise-identical reports
// across FABRICSIM_JOBS 1/4, and four concurrent repetitions against
// their serial runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/chaincode/composite_key.h"
#include "src/chaincode/tpcc/tpcc_chaincode.h"
#include "src/chaincode/tpcc/tpcc_rows.h"
#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/core/runner.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/rich_query.h"
#include "src/workload/tpcc_workload.h"

namespace fabricsim {
namespace {

class TpccContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const WriteItem& w : cc_.BootstrapState()) {
      db_.ApplyWrite(w, {0, 0});
    }
  }

  /// Commits `stub`'s buffered writes into the world state (what the
  /// validation phase would do for a valid transaction).
  void Commit(ChaincodeStub& stub, Version version) {
    for (const WriteItem& w : stub.TakeRwset().writes) {
      db_.ApplyWrite(w, version);
    }
  }

  std::optional<std::string> WrittenValue(const ChaincodeStub& stub,
                                          const std::string& key) {
    for (const WriteItem& w : stub.rwset().writes) {
      if (w.key == key && !w.is_delete) return w.value;
    }
    return std::nullopt;
  }

  TpccChaincode cc_;
  MemoryStateDb db_;
};

Invocation MakeNewOrder(int w, int d, int c,
                        std::vector<std::pair<int, int>> lines) {
  Invocation inv{"NewOrder",
                 {std::to_string(w), std::to_string(d), std::to_string(c),
                  std::to_string(lines.size())}};
  for (auto [item, qty] : lines) {
    inv.args.push_back(std::to_string(item));
    inv.args.push_back(std::to_string(qty));
  }
  return inv;
}

TEST_F(TpccContractTest, NewOrderSequencesOnDistrictRow) {
  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(stub, MakeNewOrder(0, 3, 5, {{1, 3}, {2, 4}}));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // d_next_o_id read from committed state (0) and written back as 1.
  std::optional<std::string> dist =
      WrittenValue(stub, tpcc::DistrictKey(0, 3));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(ExtractJsonField(*dist, "next_o_id").value_or(""), "1");

  // Order 0 materializes: ORDER + NEWORDER + one ORDERLINE per line.
  EXPECT_TRUE(WrittenValue(stub, tpcc::OrderKey(0, 3, 0)).has_value());
  EXPECT_TRUE(WrittenValue(stub, tpcc::NewOrderKey(0, 3, 0)).has_value());
  EXPECT_TRUE(WrittenValue(stub, tpcc::OrderLineKey(0, 3, 0, 0)).has_value());
  EXPECT_TRUE(WrittenValue(stub, tpcc::OrderLineKey(0, 3, 0, 1)).has_value());
  // Footprint: (3 + 2n) reads, (3 + 2n) writes for n lines.
  EXPECT_EQ(stub.rwset().reads.size(), 7u);
  EXPECT_EQ(stub.rwset().writes.size(), 7u);

  // The next NewOrder in the same district continues the sequence.
  Commit(stub, {1, 0});
  ChaincodeStub stub2(db_, true);
  ASSERT_TRUE(cc_.Invoke(stub2, MakeNewOrder(0, 3, 6, {{7, 1}})).ok());
  std::optional<std::string> dist2 =
      WrittenValue(stub2, tpcc::DistrictKey(0, 3));
  ASSERT_TRUE(dist2.has_value());
  EXPECT_EQ(ExtractJsonField(*dist2, "next_o_id").value_or(""), "2");
  EXPECT_TRUE(WrittenValue(stub2, tpcc::OrderKey(0, 3, 1)).has_value());
}

TEST_F(TpccContractTest, NewOrderInvalidItemRollsBack) {
  // TPC-C §2.4.1.5 / §2.4.2.3: an unused item id fails the transaction
  // after its reads — the error status fails endorsement, so no write
  // ever reaches the orderer.
  ChaincodeStub stub(db_, true);
  int invalid = cc_.config().items;  // first never-bootstrapped id
  Status status = cc_.Invoke(stub, MakeNewOrder(0, 0, 0, {{1, 2},
                                                          {invalid, 1}}));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(stub.rwset().writes.empty());
  // Both item reads happened (the second recorded as not-found).
  ASSERT_EQ(stub.rwset().reads.size(), 2u);
  EXPECT_TRUE(stub.rwset().reads[0].found);
  EXPECT_FALSE(stub.rwset().reads[1].found);
}

TEST_F(TpccContractTest, PaymentBalanceMaths) {
  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(
      stub, Invocation{"Payment", {"1", "2", "9", "250"}});
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stub.rwset().reads.size(), 3u);
  EXPECT_EQ(stub.rwset().writes.size(), 2u);

  std::optional<std::string> cust =
      WrittenValue(stub, tpcc::CustomerKey(1, 2, 9));
  ASSERT_TRUE(cust.has_value());
  EXPECT_EQ(ExtractJsonField(*cust, "balance").value_or(""), "-250");
  EXPECT_EQ(ExtractJsonField(*cust, "ytd_payment").value_or(""), "250");
  EXPECT_EQ(ExtractJsonField(*cust, "payments").value_or(""), "1");

  std::optional<std::string> dist =
      WrittenValue(stub, tpcc::DistrictKey(1, 2));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(ExtractJsonField(*dist, "ytd").value_or(""), "250");
  // Payment must NOT touch the order sequence.
  EXPECT_EQ(ExtractJsonField(*dist, "next_o_id").value_or(""), "0");

  // The warehouse row is read but never written: ytd accounting lives
  // in the district row so the single warehouse row stays conflict-free.
  EXPECT_FALSE(WrittenValue(stub, tpcc::WarehouseKey(1)).has_value());

  // Second payment compounds on committed state.
  Commit(stub, {1, 0});
  ChaincodeStub stub2(db_, true);
  ASSERT_TRUE(
      cc_.Invoke(stub2, Invocation{"Payment", {"1", "2", "9", "100"}}).ok());
  std::optional<std::string> cust2 =
      WrittenValue(stub2, tpcc::CustomerKey(1, 2, 9));
  ASSERT_TRUE(cust2.has_value());
  EXPECT_EQ(ExtractJsonField(*cust2, "balance").value_or(""), "-350");
  EXPECT_EQ(ExtractJsonField(*cust2, "payments").value_or(""), "2");
}

TEST_F(TpccContractTest, DeliveryConsumesBacklogAndCreditsCustomer) {
  // Commit one NewOrder, then deliver it.
  ChaincodeStub seed(db_, true);
  ASSERT_TRUE(cc_.Invoke(seed, MakeNewOrder(0, 0, 4, {{1, 2}, {2, 2}})).ok());
  Commit(seed, {1, 0});

  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(stub, Invocation{"Delivery", {"0", "0", "7"}});
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The NEWORDER entry is deleted, the order gains its carrier, the
  // customer is credited per line.
  bool deleted = false;
  for (const WriteItem& w : stub.rwset().writes) {
    if (w.key == tpcc::NewOrderKey(0, 0, 0)) deleted = w.is_delete;
  }
  EXPECT_TRUE(deleted);
  std::optional<std::string> order = WrittenValue(stub, tpcc::OrderKey(0, 0, 0));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(ExtractJsonField(*order, "carrier").value_or(""), "7");
  std::optional<std::string> cust =
      WrittenValue(stub, tpcc::CustomerKey(0, 0, 4));
  ASSERT_TRUE(cust.has_value());
  EXPECT_EQ(ExtractJsonField(*cust, "balance").value_or(""), "1000");
  // The backlog scan is phantom-checked.
  ASSERT_EQ(stub.rwset().range_queries.size(), 1u);
  EXPECT_TRUE(stub.rwset().range_queries[0].phantom_check);

  // An empty district delivers nothing but keeps the scan footprint.
  ChaincodeStub empty(db_, true);
  ASSERT_TRUE(cc_.Invoke(empty, Invocation{"Delivery", {"1", "5", "2"}}).ok());
  EXPECT_TRUE(empty.rwset().writes.empty());
  EXPECT_EQ(empty.rwset().range_queries.size(), 1u);
}

TEST_F(TpccContractTest, ReadOnlyTransactionsWriteNothing) {
  // Commit an order so OrderStatus/StockLevel have lines to scan.
  ChaincodeStub seed(db_, true);
  ASSERT_TRUE(cc_.Invoke(seed, MakeNewOrder(0, 1, 2, {{3, 5}})).ok());
  Commit(seed, {1, 0});

  ChaincodeStub status_stub(db_, true);
  ASSERT_TRUE(
      cc_.Invoke(status_stub, Invocation{"OrderStatus", {"0", "1", "2", "0"}})
          .ok());
  EXPECT_TRUE(status_stub.rwset().writes.empty());
  EXPECT_EQ(status_stub.rwset().reads.size(), 2u);
  ASSERT_EQ(status_stub.rwset().range_queries.size(), 1u);
  EXPECT_EQ(status_stub.rwset().range_queries[0].reads.size(), 1u);

  ChaincodeStub level_stub(db_, true);
  ASSERT_TRUE(
      cc_.Invoke(level_stub, Invocation{"StockLevel", {"0", "1", "15"}}).ok());
  EXPECT_TRUE(level_stub.rwset().writes.empty());
  // District read + one stock read for the single scanned item.
  EXPECT_EQ(level_stub.rwset().reads.size(), 2u);
  EXPECT_EQ(level_stub.rwset().range_queries.size(), 1u);
}

TEST_F(TpccContractTest, UnknownFunctionRejected) {
  ChaincodeStub stub(db_, true);
  EXPECT_EQ(cc_.Invoke(stub, Invocation{"Refund", {}}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TpccContractTest, MalformedArgumentIsRefusedNotThrown) {
  struct Case {
    Invocation inv;
    std::string names;  // function and argument index the error names
  };
  const std::vector<Case> cases = {
      {{"NewOrder", {"0", "x", "1", "1", "1", "1"}}, "NewOrder: argument 1"},
      {{"NewOrder", {"0", "0", "1", "1", "", "1"}}, "NewOrder: argument 4"},
      {{"NewOrder", {"0", "0", "1", "2", "1", "1", "2", "1e3"}},
       "NewOrder: argument 7"},
      {{"Payment", {"1", "2", "9", "12abc"}}, "Payment: argument 3"},
      {{"Payment", {"+1", "2", "9", "100"}}, "Payment: argument 0"},
      {{"Delivery", {"abc", "0", "7"}}, "Delivery: argument 0"},
      {{"OrderStatus", {"0", "1", "2", "99999999999"}},
       "OrderStatus: argument 3"},
      {{"StockLevel", {"0", "1", " 15"}}, "StockLevel: argument 2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.names);
    ChaincodeStub stub(db_, true);
    Status status;
    ASSERT_NO_THROW(status = cc_.Invoke(stub, c.inv));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(c.names), std::string::npos)
        << status.ToString();
    // Refused before any state access.
    EXPECT_TRUE(stub.rwset().reads.empty());
    EXPECT_TRUE(stub.rwset().writes.empty());
  }
}

TEST_F(TpccContractTest, MalformedRowNamesItsTable) {
  db_.ApplyWrite(
      WriteItem{tpcc::DistrictKey(0, 1), "{\"docType\":\"district\"}", false},
      {1, 0});
  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(stub, Invocation{"Payment", {"0", "1", "2", "5"}});
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("DISTRICT"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(stub.rwset().writes.empty());
}

TEST_F(TpccContractTest, AbsentStockRowReadsAsZeros) {
  db_.ApplyWrite(WriteItem{tpcc::StockKey(0, 4), "", true}, {1, 0});
  ChaincodeStub stub(db_, true);
  ASSERT_TRUE(cc_.Invoke(stub, MakeNewOrder(0, 0, 0, {{4, 3}})).ok());
  std::optional<std::string> stock = WrittenValue(stub, tpcc::StockKey(0, 4));
  ASSERT_TRUE(stock.has_value());
  // 0 - 3 drops below 10, so the shelf restocks by 91.
  EXPECT_EQ(*stock, (tpcc::StockRow{88, 3, 1}.Encode()));
}

TEST_F(TpccContractTest, PaymentAmountOverflowIsRefused) {
  const Invocation payment{"Payment", {"0", "0", "0", "9223372036854775807"}};
  ChaincodeStub first(db_, true);
  ASSERT_TRUE(cc_.Invoke(first, payment).ok());
  Commit(first, {1, 0});
  // The district's ytd already holds LLONG_MAX: a second payment would
  // overflow it (and the customer's ytd_payment).
  ChaincodeStub second(db_, true);
  Status status = cc_.Invoke(second, payment);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("Payment: amount"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(second.rwset().writes.empty());
}

TEST_F(TpccContractTest, NewOrderQuantityOverflowIsRefused) {
  // A stock row whose ytd is one order of INT_MAX away from LLONG_MAX.
  db_.ApplyWrite(WriteItem{tpcc::StockKey(0, 4),
                           tpcc::StockRow{100, LLONG_MAX - 10, 0}.Encode(),
                           false},
                 {1, 0});
  ChaincodeStub stub(db_, true);
  Status status =
      cc_.Invoke(stub, MakeNewOrder(0, 0, 0, {{1, 1}, {4, 2147483647}}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("NewOrder: quantity 1"), std::string::npos)
      << status.ToString();
}

// ------------------------------------------------------------ row codec

// The encoders the typed rows replaced, kept as the reference: every
// row is a JsonObject of std::to_string fields, every key a
// MakeCompositeKey of PadKey attributes. Value and key bytes are
// simulated data, so the typed codec must match them exactly.
namespace reference {

std::string S(long long v) { return std::to_string(v); }

std::string Warehouse(const tpcc::WarehouseRow& r) {
  return JsonObject(
      {{"docType", "warehouse"}, {"tax_bp", S(r.tax_bp)}, {"ytd", S(r.ytd)}});
}
std::string District(const tpcc::DistrictRow& r) {
  return JsonObject({{"docType", "district"},
                     {"tax_bp", S(r.tax_bp)},
                     {"ytd", S(r.ytd)},
                     {"next_o_id", S(r.next_o_id)}});
}
std::string Customer(const tpcc::CustomerRow& r) {
  return JsonObject({{"docType", "customer"},
                     {"balance", S(r.balance)},
                     {"ytd_payment", S(r.ytd_payment)},
                     {"payments", S(r.payments)}});
}
std::string Order(const tpcc::OrderRow& r) {
  return JsonObject({{"docType", "order"},
                     {"c_id", S(r.c_id)},
                     {"ol_cnt", S(r.ol_cnt)},
                     {"carrier", r.carrier}});
}
std::string NewOrder() { return JsonObject({{"docType", "neworder"}}); }
std::string OrderLine(const tpcc::OrderLineRow& r) {
  return JsonObject({{"docType", "orderline"},
                     {"i_id", S(r.i_id)},
                     {"qty", S(r.qty)},
                     {"amount", S(r.amount)}});
}
std::string Stock(const tpcc::StockRow& r) {
  return JsonObject({{"docType", "stock"},
                     {"quantity", S(r.quantity)},
                     {"ytd", S(r.ytd)},
                     {"order_cnt", S(r.order_cnt)}});
}
std::string Item(const tpcc::ItemRow& r) {
  return JsonObject({{"docType", "item"}, {"price", S(r.price)}});
}

std::string Pad(long long v, int width) {
  return PadKey(static_cast<uint64_t>(v), width);
}
std::string Key(const char* table, std::vector<std::string> attrs) {
  return MakeCompositeKey(table, attrs);
}

}  // namespace reference

/// Seeded draws that hit the edges often: zero, ±1, the type's
/// limits, values wider than any pad width, and uniform bits.
template <typename T>
T Draw(Rng& rng) {
  switch (rng.UniformU64(8)) {
    case 0:
      return 0;
    case 1:
      return std::numeric_limits<T>::max();
    case 2:
      return std::numeric_limits<T>::min();
    case 3:
      return static_cast<T>(static_cast<int>(rng.UniformU64(3)) - 1);
    case 4:
      return static_cast<T>(rng.UniformU64(1000000000));  // wider than pads
    case 5:
      return -static_cast<T>(rng.UniformU64(100000));
    default:
      return static_cast<T>(rng.NextU64());
  }
}

std::string DrawCarrier(Rng& rng) {
  std::string carrier;
  size_t length = rng.UniformU64(24);  // past the small-string buffer
  for (size_t i = 0; i < length; ++i) {
    carrier.push_back("0123456789abcXYZ-_ "[rng.UniformU64(19)]);
  }
  return carrier;
}

template <typename Row>
void ExpectRowMatches(const Row& row, const std::string& want, int draw) {
  std::string got = row.Encode();
  ASSERT_EQ(got, want) << Row::kTable << " draw " << draw;
  ASSERT_EQ(got.capacity(), std::max<size_t>(got.size(), 15))
      << Row::kTable << " draw " << draw;
  Result<Row> parsed = Row::Parse(got);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed.value() == row) << Row::kTable << " draw " << draw;
}

TEST(TpccRowCodecTest, EncodeMatchesJsonObjectReferenceAndParseRoundTrips) {
  Rng rng(2112);
  for (int i = 0; i < 100000; ++i) {
    tpcc::WarehouseRow wh{Draw<int>(rng), Draw<long long>(rng)};
    ExpectRowMatches(wh, reference::Warehouse(wh), i);
    tpcc::DistrictRow dist{Draw<int>(rng), Draw<long long>(rng),
                           Draw<long long>(rng)};
    ExpectRowMatches(dist, reference::District(dist), i);
    tpcc::CustomerRow cust{Draw<long long>(rng), Draw<long long>(rng),
                           Draw<long long>(rng)};
    ExpectRowMatches(cust, reference::Customer(cust), i);
    tpcc::OrderRow order{Draw<int>(rng), Draw<int>(rng), DrawCarrier(rng)};
    ExpectRowMatches(order, reference::Order(order), i);
    ExpectRowMatches(tpcc::NewOrderRow{}, reference::NewOrder(), i);
    tpcc::OrderLineRow line{Draw<int>(rng), Draw<int>(rng),
                            Draw<long long>(rng)};
    ExpectRowMatches(line, reference::OrderLine(line), i);
    tpcc::StockRow stock{Draw<long long>(rng), Draw<long long>(rng),
                         Draw<long long>(rng)};
    ExpectRowMatches(stock, reference::Stock(stock), i);
    tpcc::ItemRow item{Draw<int>(rng)};
    ExpectRowMatches(item, reference::Item(item), i);
    if (HasFatalFailure()) return;
  }
}

void ExpectKeyMatches(const std::string& got, const std::string& want,
                      int draw) {
  ASSERT_EQ(got, want) << "draw " << draw;
  ASSERT_EQ(got.capacity(), std::max<size_t>(got.size(), 15))
      << "draw " << draw;
}

TEST(TpccRowCodecTest, KeyBuildersMatchMakeCompositeKeyReference) {
  using reference::Key;
  using reference::Pad;
  Rng rng(1122);
  for (int i = 0; i < 100000; ++i) {
    int w = Draw<int>(rng), d = Draw<int>(rng), c = Draw<int>(rng);
    int o = Draw<int>(rng), l = Draw<int>(rng), item = Draw<int>(rng);
    long long lo = Draw<long long>(rng);
    ExpectKeyMatches(tpcc::WarehouseKey(w),
                     Key(tpcc::kWarehouseTable, {Pad(w, 4)}), i);
    ExpectKeyMatches(tpcc::DistrictKey(w, d),
                     Key(tpcc::kDistrictTable, {Pad(w, 4), Pad(d, 2)}), i);
    ExpectKeyMatches(
        tpcc::CustomerKey(w, d, c),
        Key(tpcc::kCustomerTable, {Pad(w, 4), Pad(d, 2), Pad(c, 5)}), i);
    ExpectKeyMatches(tpcc::OrderKey(w, d, o),
                     Key(tpcc::kOrderTable, {Pad(w, 4), Pad(d, 2), Pad(o, 8)}),
                     i);
    ExpectKeyMatches(
        tpcc::NewOrderKey(w, d, o),
        Key(tpcc::kNewOrderTable, {Pad(w, 4), Pad(d, 2), Pad(o, 8)}), i);
    ExpectKeyMatches(tpcc::OrderLineKey(w, d, o, l),
                     Key(tpcc::kOrderLineTable,
                         {Pad(w, 4), Pad(d, 2), Pad(o, 8), Pad(l, 2)}),
                     i);
    ExpectKeyMatches(tpcc::StockKey(w, item),
                     Key(tpcc::kStockTable, {Pad(w, 4), Pad(item, 5)}), i);
    ExpectKeyMatches(tpcc::ItemKey(item),
                     Key(tpcc::kItemTable, {Pad(item, 5)}), i);
    ExpectKeyMatches(tpcc::NewOrderPrefix(w, d),
                     Key(tpcc::kNewOrderTable, {Pad(w, 4), Pad(d, 2)}), i);
    ExpectKeyMatches(
        tpcc::OrderLinePrefix(w, d, lo),
        Key(tpcc::kOrderLineTable, {Pad(w, 4), Pad(d, 2), Pad(lo, 8)}), i);
    if (o >= 0) {
      ASSERT_EQ(tpcc::OrderIdOfNewOrderKey(tpcc::NewOrderKey(w, d, o)), o)
          << "draw " << i;
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_FALSE(tpcc::OrderIdOfNewOrderKey(tpcc::OrderLineKey(0, 0, 1, 1))
                   .has_value());
  EXPECT_FALSE(tpcc::OrderIdOfNewOrderKey("NEWORDER").has_value());
}

TEST(TpccRowCodecTest, ParseAcceptsOnlyTheEncodedLayout) {
  EXPECT_TRUE(tpcc::DistrictRow::Parse(reference::District({1, 2, 3})).ok());
  for (const char* bad : {
           "",
           "{\"docType\":\"district\",\"tax_bp\":\"1\",\"ytd\":\"2\"}",
           "{\"docType\":\"stock\",\"tax_bp\":\"1\",\"ytd\":\"2\","
           "\"next_o_id\":\"3\"}",
           "{\"docType\":\"district\",\"ytd\":\"2\",\"tax_bp\":\"1\","
           "\"next_o_id\":\"3\"}",
           "{\"docType\":\"district\",\"tax_bp\":\"x\",\"ytd\":\"2\","
           "\"next_o_id\":\"3\"}",
           "{\"docType\":\"district\",\"tax_bp\":\"99999999999\",\"ytd\":"
           "\"2\",\"next_o_id\":\"3\"}",
           "{\"docType\":\"district\",\"tax_bp\":\"1\",\"ytd\":\"2\","
           "\"next_o_id\":\"3\"} ",
       }) {
    SCOPED_TRACE(bad);
    Result<tpcc::DistrictRow> parsed = tpcc::DistrictRow::Parse(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInternal);
    EXPECT_NE(parsed.status().message().find("DISTRICT"), std::string::npos);
  }
}

// ------------------------------------------------------------ workload

TEST(TpccWorkloadTest, MixMatchesKlenikWeights) {
  WorkloadConfig config;
  config.chaincode = "tpcc";
  config.zipf_skew = 0.0;
  std::unique_ptr<WorkloadGenerator> workload = MakeTpccWorkload(config);
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(workload->chaincode(), "tpcc");

  Rng rng(123);
  const int kDraws = 20000;
  std::map<std::string, int> counts;
  int invalid_neworders = 0;
  for (int i = 0; i < kDraws; ++i) {
    Invocation inv = workload->Next(rng);
    ++counts[inv.function];
    if (inv.function == "NewOrder") {
      // The invalid transaction names the first unused item id as its
      // last item.
      if (inv.args[inv.args.size() - 2] ==
          std::to_string(config.tpcc.items)) {
        ++invalid_neworders;
      }
    }
  }
  // 45 / 43 / 4 / 4 / 4 within sampling tolerance.
  EXPECT_NEAR(counts["NewOrder"] / static_cast<double>(kDraws), 0.45, 0.02);
  EXPECT_NEAR(counts["Payment"] / static_cast<double>(kDraws), 0.43, 0.02);
  EXPECT_NEAR(counts["Delivery"] / static_cast<double>(kDraws), 0.04, 0.01);
  EXPECT_NEAR(counts["OrderStatus"] / static_cast<double>(kDraws), 0.04, 0.01);
  EXPECT_NEAR(counts["StockLevel"] / static_cast<double>(kDraws), 0.04, 0.01);
  // ~1% of NewOrders carry the invalid item.
  EXPECT_NEAR(invalid_neworders / static_cast<double>(counts["NewOrder"]),
              0.01, 0.008);
}

TEST(TpccWorkloadTest, ArgumentsStayInSchemaBounds) {
  WorkloadConfig config;
  config.chaincode = "tpcc";
  std::unique_ptr<WorkloadGenerator> workload = MakeTpccWorkload(config);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Invocation inv = workload->Next(rng);
    ASSERT_GE(inv.args.size(), 3u);
    int w = std::stoi(inv.args[0]);
    int d = std::stoi(inv.args[1]);
    EXPECT_GE(w, 0);
    EXPECT_LT(w, config.tpcc.warehouses);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, config.tpcc.districts_per_warehouse);
    if (inv.function == "NewOrder") {
      int n = std::stoi(inv.args[3]);
      EXPECT_GE(n, 5);
      EXPECT_LE(n, 15);
      ASSERT_EQ(inv.args.size(), static_cast<size_t>(4 + 2 * n));
    }
  }
}

// --------------------------------------------------- determinism

// Same exhaustive numeric fingerprint as channel_test.cc / fault_test.cc.
std::string Fingerprint(const FailureReport& r) {
  std::string out;
  out += StrFormat(
      "ledger=%llu valid=%llu endorse=%llu mvcc_intra=%llu "
      "mvcc_inter=%llu phantom=%llu submitted=%llu app=%llu\n",
      static_cast<unsigned long long>(r.ledger_txs),
      static_cast<unsigned long long>(r.valid_txs),
      static_cast<unsigned long long>(r.endorsement_failures),
      static_cast<unsigned long long>(r.mvcc_intra),
      static_cast<unsigned long long>(r.mvcc_inter),
      static_cast<unsigned long long>(r.phantom),
      static_cast<unsigned long long>(r.submitted_txs),
      static_cast<unsigned long long>(r.app_errors));
  out += StrFormat("pct=%.17g/%.17g/%.17g/%.17g/%.17g\n", r.total_failure_pct,
                   r.endorsement_pct, r.mvcc_pct, r.phantom_pct,
                   r.early_abort_pct);
  out += StrFormat("lat=%.17g/%.17g/%.17g tput=%.17g/%.17g\n", r.avg_latency_s,
                   r.p50_latency_s, r.p99_latency_s, r.committed_throughput_tps,
                   r.valid_throughput_tps);
  return out;
}

TEST(TpccDeterminismTest, BitwiseIdenticalAcrossJobs) {
  ExperimentConfig config = ExperimentConfig::Builder()
                                .Chaincode("tpcc")
                                .Duration(10 * kSecond)
                                .RateTps(100)
                                .Repetitions(1)
                                .Seed(7)
                                .Build();
  Result<FailureReport> reference = RunOnce(config, 7);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::string golden = Fingerprint(reference.value());
  // A real mix produces failures AND successes; a degenerate run would
  // make the determinism check vacuous.
  EXPECT_GT(reference.value().valid_txs, 0u);
  EXPECT_GT(reference.value().mvcc_intra + reference.value().mvcc_inter, 0u);

  int saved_jobs = ParallelJobs();
  for (int jobs : {1, 4}) {
    SetParallelJobs(jobs);
    Result<ExperimentResult> result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Fingerprint(result.value().repetitions[0]), golden)
        << "jobs=" << jobs;
  }
  SetParallelJobs(saved_jobs);
}

// Four repetitions fan out over four worker threads, so TPC-C runs
// share the process (and the registered chaincode) concurrently; every
// repetition must still match its serial run.
TEST(TpccDeterminismTest, ConcurrentRepetitionsMatchSerialRuns) {
  ExperimentConfig config = ExperimentConfig::Builder()
                                .Chaincode("tpcc")
                                .Duration(10 * kSecond)
                                .RateTps(100)
                                .Repetitions(4)
                                .Seed(7)
                                .Build();
  int saved_jobs = ParallelJobs();
  SetParallelJobs(1);
  Result<ExperimentResult> serial = RunExperiment(config);
  SetParallelJobs(4);
  Result<ExperimentResult> concurrent = RunExperiment(config);
  SetParallelJobs(saved_jobs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(serial.value().repetitions.size(), 4u);
  ASSERT_EQ(concurrent.value().repetitions.size(), 4u);
  std::set<std::string> distinct;
  for (size_t r = 0; r < 4; ++r) {
    std::string want = Fingerprint(serial.value().repetitions[r]);
    EXPECT_EQ(Fingerprint(concurrent.value().repetitions[r]), want)
        << "repetition " << r;
    distinct.insert(want);
  }
  // Each repetition runs its own seed; identical runs would make the
  // comparison vacuous.
  EXPECT_GT(distinct.size(), 1u);
}

}  // namespace
}  // namespace fabricsim
