// MinerRegistry unit tests plus the observer/cancellation contract of the
// unified Miner interface: lookup failures, stable enumeration, duplicate
// registration, request validation, per-iteration callbacks, and the
// guarantee that a cancelled run stops within one iteration, returns
// Cancelled and leaks no catalog temp relations.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/miner_registry.h"
#include "core/paper_example.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"

namespace setm {
namespace {

const char* kBuiltins[] = {"setm",    "setm-sql", "nested-loop",
                           "apriori", "ais",      "brute-force"};

TransactionDb TestTransactions() {
  QuestOptions gen;
  gen.seed = 77;
  gen.num_transactions = 120;
  gen.avg_transaction_size = 5;
  gen.num_items = 14;
  gen.num_patterns = 10;
  return QuestGenerator(gen).Generate();
}

MiningOptions TestOptions() {
  MiningOptions options;
  options.min_support = 0.05;
  return options;
}

/// Observer that records every callback and cancels after `cancel_after`
/// iterations (0 = never cancel).
class RecordingObserver : public MiningObserver {
 public:
  explicit RecordingObserver(size_t cancel_after = 0)
      : cancel_after_(cancel_after) {}

  bool OnIteration(const IterationStats& stats) override {
    ks_.push_back(stats.k);
    return cancel_after_ == 0 || ks_.size() < cancel_after_;
  }

  const std::vector<size_t>& ks() const { return ks_; }

 private:
  size_t cancel_after_;
  std::vector<size_t> ks_;
};

TEST(MinerRegistryTest, UnknownAlgorithmIsNotFound) {
  Database db;
  auto miner = MinerRegistry::Create("definitely-not-an-algo", &db);
  ASSERT_FALSE(miner.ok());
  EXPECT_EQ(miner.status().code(), StatusCode::kNotFound);
  // The error names the registered algorithms, so --algo typos are
  // self-explaining.
  EXPECT_NE(miner.status().message().find("setm"), std::string::npos);
  EXPECT_FALSE(MinerRegistry::Info("definitely-not-an-algo").ok());
}

TEST(MinerRegistryTest, EnumerationIsStableAndStartsWithBuiltins) {
  std::vector<MinerInfo> first = MinerRegistry::List();
  ASSERT_GE(first.size(), std::size(kBuiltins));
  for (size_t i = 0; i < std::size(kBuiltins); ++i) {
    EXPECT_EQ(first[i].name, kBuiltins[i]) << "position " << i;
    EXPECT_FALSE(first[i].description.empty());
  }
  // Enumeration order is registration order and does not wobble.
  std::vector<MinerInfo> second = MinerRegistry::List();
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].name, first[i].name);
  }
}

TEST(MinerRegistryTest, DoubleRegistrationIsRejected) {
  // A built-in name is taken.
  auto taken = MinerRegistry::Register(
      MinerInfo{"setm", "imposter", false, false, false},
      [](Database*, const SetmOptions&) { return std::unique_ptr<Miner>(); });
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.code(), StatusCode::kAlreadyExists);

  // A custom registration works once, then collides with itself.
  MinerRegistry::Factory factory = [](Database* db, const SetmOptions& knobs) {
    auto inner = MinerRegistry::Create("brute-force", db, knobs);
    return inner.ok() ? std::move(inner).value() : nullptr;
  };
  ASSERT_TRUE(MinerRegistry::Register(
                  MinerInfo{"test-custom-algo", "registered by the registry "
                            "unit test", false, false, false},
                  factory)
                  .ok());
  auto dup = MinerRegistry::Register(
      MinerInfo{"test-custom-algo", "again", false, false, false}, factory);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  // The custom algorithm is a first-class citizen: enumerated and runnable.
  bool listed = false;
  for (const MinerInfo& info : MinerRegistry::List()) {
    listed |= info.name == "test-custom-algo";
  }
  EXPECT_TRUE(listed);
  Database db;
  TransactionDb txns = PaperExampleTransactions();
  auto miner = MinerRegistry::Create("test-custom-algo", &db);
  ASSERT_TRUE(miner.ok());
  MiningRequest request;
  request.transactions = &txns;
  request.options = PaperExampleOptions();
  auto result = miner.value()->Mine(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.OfSize(2).size(), 6u);
}

TEST(MinerRegistryTest, CreateRequiresDatabase) {
  auto miner = MinerRegistry::Create("apriori", nullptr);
  ASSERT_FALSE(miner.ok());
  EXPECT_EQ(miner.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinerRegistryTest, RequestMustNameExactlyOneSource) {
  Database db;
  auto miner = MinerRegistry::Create("setm", &db);
  ASSERT_TRUE(miner.ok());

  MiningRequest empty;
  auto none = miner.value()->Mine(empty);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);

  TransactionDb txns = PaperExampleTransactions();
  auto sales = LoadSalesTable(&db, "sales", txns, TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  MiningRequest both;
  both.transactions = &txns;
  both.table = sales.value();
  auto two = miner.value()->Mine(both);
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinerRegistryTest, DuplicateTableRowsAreRejectedNotMerged) {
  // Row-oriented miners (setm) count duplicate SALES rows; the extraction
  // path must reject them rather than silently dedup and diverge.
  Database db;
  auto table = db.catalog()->CreateTable("sales", SetmMiner::SalesSchema(),
                                         TableBacking::kMemory);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(table.value()
                    ->Insert(Tuple({Value::Int32(1), Value::Int32(5)}))
                    .ok());
  }
  auto miner = MinerRegistry::Create("apriori", &db);
  ASSERT_TRUE(miner.ok());
  MiningRequest request;
  request.table = table.value();
  request.options = TestOptions();
  auto result = miner.value()->Mine(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("(1, 5)"), std::string::npos)
      << result.status().ToString();
}

TEST(MinerRegistryTest, SerialMinersRejectThreadRequests) {
  Database db;
  TransactionDb txns = PaperExampleTransactions();
  for (const MinerInfo& info : MinerRegistry::List()) {
    if (info.honors_threads) continue;
    SetmOptions knobs;
    knobs.num_threads = 4;
    auto miner = MinerRegistry::Create(info.name, &db, knobs);
    ASSERT_TRUE(miner.ok()) << info.name;
    MiningRequest request;
    request.transactions = &txns;
    request.options = PaperExampleOptions();
    auto result = miner.value()->Mine(request);
    ASSERT_FALSE(result.ok()) << info.name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << info.name;
  }
}

TEST(MinerRegistryTest, PhysicalKnobsInRequestOverrideCreateKnobs) {
  Database db;
  TransactionDb txns = PaperExampleTransactions();
  SetmOptions create_knobs;
  create_knobs.num_threads = 8;  // would be rejected by ais...
  auto miner = MinerRegistry::Create("ais", &db, create_knobs);
  ASSERT_TRUE(miner.ok());
  MiningRequest request;
  request.transactions = &txns;
  request.options = PaperExampleOptions();
  request.physical = SetmOptions{};  // ...but the request overrides to serial
  auto result = miner.value()->Mine(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().itemsets.OfSize(2).size(), 6u);
}

// Observer callbacks arrive once per iteration, in k order, for every
// registered algorithm.
TEST(MiningObserverTest, ObserverSeesEveryIteration) {
  TransactionDb txns = TestTransactions();
  for (const MinerInfo& info : MinerRegistry::List()) {
    Database db;
    auto miner = MinerRegistry::Create(info.name, &db);
    ASSERT_TRUE(miner.ok()) << info.name;
    RecordingObserver observer;
    MiningRequest request;
    request.transactions = &txns;
    request.options = TestOptions();
    request.options.observer = &observer;
    auto result = miner.value()->Mine(request);
    ASSERT_TRUE(result.ok()) << info.name << ": "
                             << result.status().ToString();
    ASSERT_EQ(observer.ks().size(), result.value().iterations.size())
        << info.name;
    for (size_t i = 0; i < observer.ks().size(); ++i) {
      EXPECT_EQ(observer.ks()[i], result.value().iterations[i].k)
          << info.name;
    }
  }
}

// A cancelled run stops within one iteration of the veto, returns
// Cancelled, and leaks no catalog temp relations — for every algorithm,
// over both request sources.
TEST(MiningObserverTest, CancellationStopsEveryMinerWithoutCatalogLeaks) {
  TransactionDb txns = TestTransactions();
  for (const MinerInfo& info : MinerRegistry::List()) {
    for (const bool table_source : {false, true}) {
      Database db;
      const Table* table = nullptr;
      if (table_source) {
        auto sales = LoadSalesTable(&db, "sales", txns, TableBacking::kHeap);
        ASSERT_TRUE(sales.ok());
        table = sales.value();
      }
      const size_t tables_before = db.catalog()->TableNames().size();

      auto miner = MinerRegistry::Create(info.name, &db);
      ASSERT_TRUE(miner.ok()) << info.name;
      RecordingObserver observer(/*cancel_after=*/1);
      MiningRequest request;
      if (table_source) {
        request.table = table;
      } else {
        request.transactions = &txns;
      }
      request.options = TestOptions();
      request.options.observer = &observer;
      auto result = miner.value()->Mine(request);

      const char* mode = table_source ? " (table source)" : " (txn source)";
      ASSERT_FALSE(result.ok()) << info.name << mode;
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << info.name << mode << ": " << result.status().ToString();
      // Stopped within one iteration: exactly the vetoing callback ran.
      EXPECT_EQ(observer.ks().size(), 1u) << info.name << mode;
      // No catalog temp relations leaked (setm-sql scratch, temporary
      // source tables, ...).
      EXPECT_EQ(db.catalog()->TableNames().size(), tables_before)
          << info.name << mode;
    }
  }
}

// Cancellation also reaches the coordinator loop a threaded "setm" runs.
TEST(MiningObserverTest, ParallelExecutorHonorsCancellation) {
  TransactionDb txns = TestTransactions();
  Database db;
  SetmOptions knobs;
  knobs.num_threads = 4;
  auto miner = MinerRegistry::Create("setm", &db, knobs);
  ASSERT_TRUE(miner.ok());
  RecordingObserver observer(/*cancel_after=*/2);
  MiningRequest request;
  request.transactions = &txns;
  request.options = TestOptions();
  request.options.observer = &observer;
  auto result = miner.value()->Mine(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(observer.ks().size(), 2u);
}

}  // namespace
}  // namespace setm
