#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "engine/operators.h"
#include "flow/flowgen.h"
#include "test_util.h"
#include "tpc/dbgen.h"
#include "tpc/partitioner.h"

namespace skalla {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.Uniform(9, 9), 9);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Rng rng(5);
  int64_t low_rank_hits = 0;
  const int64_t n = 100;
  for (int i = 0; i < 5000; ++i) {
    const int64_t r = rng.Zipf(n, 1.0);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, n);
    if (r < 10) ++low_rank_hits;
  }
  // With skew 1.0 the first 10 ranks should dominate.
  EXPECT_GT(low_rank_hits, 2000);
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng rng(6);
  int64_t low_rank_hits = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low_rank_hits;
  }
  EXPECT_LT(low_rank_hits, 1000);
}

TEST(TpcGenTest, RowCountAndSchema) {
  TpcConfig config;
  config.num_rows = 500;
  const Table t = GenerateTpcr(config);
  EXPECT_EQ(t.num_rows(), 500);
  EXPECT_TRUE(t.schema().Equals(*TpcrSchema()));
}

TEST(TpcGenTest, DeterministicInSeed) {
  TpcConfig config;
  config.num_rows = 200;
  const Table a = GenerateTpcr(config);
  const Table b = GenerateTpcr(config);
  ExpectSameRows(a, b);
  config.seed = 43;
  const Table c = GenerateTpcr(config);
  EXPECT_FALSE(a.SameRowMultiset(c));
}

TEST(TpcGenTest, NationKeyDeterminedByCustKey) {
  TpcConfig config;
  config.num_rows = 1000;
  const Table t = GenerateTpcr(config);
  const int cust = *t.schema().IndexOf("CustKey");
  const int nation = *t.schema().IndexOf("NationKey");
  const int name = *t.schema().IndexOf("CustName");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const int64_t ck = t.Get(r, cust).AsInt64();
    EXPECT_EQ(t.Get(r, nation).AsInt64(), NationOfCustomer(ck, config));
    EXPECT_EQ(t.Get(r, name).AsString(), CustomerName(ck));
  }
}

TEST(TpcGenTest, DomainsRespected) {
  TpcConfig config;
  config.num_rows = 800;
  config.num_clerks = 10;
  const Table t = GenerateTpcr(config);
  const int nation = *t.schema().IndexOf("NationKey");
  const int clerk = *t.schema().IndexOf("ClerkKey");
  const int qty = *t.schema().IndexOf("Quantity");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_GE(t.Get(r, nation).AsInt64(), 0);
    EXPECT_LT(t.Get(r, nation).AsInt64(), config.num_nations);
    EXPECT_GE(t.Get(r, clerk).AsInt64(), 0);
    EXPECT_LT(t.Get(r, clerk).AsInt64(), config.num_clerks);
    EXPECT_GE(t.Get(r, qty).AsInt64(), 1);
    EXPECT_LE(t.Get(r, qty).AsInt64(), 50);
  }
}

TEST(TpcGenTest, PricesAreIntegralDoubles) {
  TpcConfig config;
  config.num_rows = 300;
  const Table t = GenerateTpcr(config);
  const int price = *t.schema().IndexOf("ExtendedPrice");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const double p = t.Get(r, price).AsDouble();
    EXPECT_EQ(p, static_cast<double>(static_cast<int64_t>(p)));
  }
}

TEST(FlowGenTest, SchemaMatchesPaper) {
  const SchemaPtr schema = FlowSchema();
  for (const char* col :
       {"RouterId", "SourceIP", "SourcePort", "SourceMask", "SourceAS",
        "DestIP", "DestPort", "DestMask", "DestAS", "StartTime", "EndTime",
        "NumPackets", "NumBytes"}) {
    EXPECT_TRUE(schema->Contains(col)) << col;
  }
  EXPECT_EQ(schema->num_fields(), 13);
}

TEST(FlowGenTest, RouterOwnsSourceAsBlock) {
  FlowConfig config;
  config.num_rows = 2000;
  const Table t = GenerateFlows(config);
  const int router = *t.schema().IndexOf("RouterId");
  const int sas = *t.schema().IndexOf("SourceAS");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.Get(r, router).AsInt64(),
              RouterOfSourceAs(t.Get(r, sas).AsInt64(), config));
  }
}

TEST(FlowGenTest, TimesOrderedAndByteCountsPositive) {
  FlowConfig config;
  config.num_rows = 500;
  const Table t = GenerateFlows(config);
  const int start = *t.schema().IndexOf("StartTime");
  const int end = *t.schema().IndexOf("EndTime");
  const int bytes = *t.schema().IndexOf("NumBytes");
  const int packets = *t.schema().IndexOf("NumPackets");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_LE(t.Get(r, start).AsInt64(), t.Get(r, end).AsInt64());
    EXPECT_GE(t.Get(r, packets).AsInt64(), 1);
    EXPECT_GE(t.Get(r, bytes).AsInt64(), t.Get(r, packets).AsInt64() * 40);
  }
}

// ---------------------------------------------------------------------------
// Partitioners.
// ---------------------------------------------------------------------------

TEST(PartitionerTest, RangePartitioningIsCompleteAndDisjoint) {
  TpcConfig config;
  config.num_rows = 1000;
  const Table t = GenerateTpcr(config);
  ASSERT_OK_AND_ASSIGN(PartitionedData data,
                       PartitionByRange(t, "NationKey", 4, 0, 24));
  ASSERT_EQ(data.fragments.size(), 4u);

  std::vector<const Table*> ptrs;
  int64_t total = 0;
  for (const auto& f : data.fragments) {
    total += f->num_rows();
    ptrs.push_back(f.get());
  }
  EXPECT_EQ(total, t.num_rows());
  ASSERT_OK_AND_ASSIGN(Table unioned, UnionAll(ptrs));
  ExpectSameRows(unioned, t);

  // Every row respects its site's declared range, and the declared ranges
  // make NationKey a partition attribute.
  for (size_t s = 0; s < data.fragments.size(); ++s) {
    const AttrDomain& domain = data.infos[s].Domain("NationKey");
    const int idx = *t.schema().IndexOf("NationKey");
    for (int64_t r = 0; r < data.fragments[s]->num_rows(); ++r) {
      EXPECT_TRUE(domain.MayContain(data.fragments[s]->Get(r, idx)));
    }
  }
  EXPECT_TRUE(IsPartitionAttribute("NationKey", data.infos));
}

TEST(PartitionerTest, HashPartitioningPreservesMultiset) {
  TpcConfig config;
  config.num_rows = 700;
  const Table t = GenerateTpcr(config);
  ASSERT_OK_AND_ASSIGN(PartitionedData data, PartitionByHash(t, "OrderKey", 3));
  std::vector<const Table*> ptrs;
  for (const auto& f : data.fragments) ptrs.push_back(f.get());
  ASSERT_OK_AND_ASSIGN(Table unioned, UnionAll(ptrs));
  ExpectSameRows(unioned, t);
  // Same OrderKey always lands on the same site.
  const int idx = *t.schema().IndexOf("OrderKey");
  std::map<int64_t, size_t> owner;
  for (size_t s = 0; s < data.fragments.size(); ++s) {
    for (int64_t r = 0; r < data.fragments[s]->num_rows(); ++r) {
      const int64_t key = data.fragments[s]->Get(r, idx).AsInt64();
      auto [it, inserted] = owner.emplace(key, s);
      if (!inserted) {
        EXPECT_EQ(it->second, s) << "OrderKey " << key;
      }
    }
  }
}

TEST(PartitionerTest, RoundRobinBalances) {
  TpcConfig config;
  config.num_rows = 100;
  const Table t = GenerateTpcr(config);
  ASSERT_OK_AND_ASSIGN(PartitionedData data, PartitionRoundRobin(t, 4));
  for (const auto& f : data.fragments) {
    EXPECT_EQ(f->num_rows(), 25);
  }
}

TEST(PartitionerTest, ProfileDomainsTightensRanges) {
  TpcConfig config;
  config.num_rows = 2000;
  config.num_customers = 500;
  const Table t = GenerateTpcr(config);
  ASSERT_OK_AND_ASSIGN(PartitionedData data,
                       PartitionByRange(t, "NationKey", 4, 0, 24));
  ASSERT_OK(ProfileDomains(&data, {"CustKey"}));
  // CustKey is block-correlated with NationKey, so the profiled CustKey
  // ranges are disjoint: CustKey is (provably) a partition attribute too.
  EXPECT_TRUE(IsPartitionAttribute("CustKey", data.infos));
}

TEST(PartitionerTest, InvalidArguments) {
  const Table t = MakeTinyTable();
  EXPECT_FALSE(PartitionByRange(t, "g", 0, 0, 10).ok());
  EXPECT_FALSE(PartitionByRange(t, "nope", 2, 0, 10).ok());
  EXPECT_FALSE(PartitionByRange(t, "g", 2, 10, 0).ok());
  EXPECT_FALSE(PartitionByRange(t, "s", 2, 0, 10).ok());  // string attr
  EXPECT_FALSE(PartitionByHash(t, "nope", 2).ok());
  EXPECT_FALSE(PartitionRoundRobin(t, -1).ok());
}

TEST(PartitionerTest, EmptyFragmentGetsEmptySetDomainOnProfile) {
  // All g values are in {1,2,3}; with 8 sites over [0, 79] by range most
  // fragments are empty and must be profiled to the empty domain.
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(PartitionedData data,
                       PartitionByRange(t, "g", 8, 0, 79));
  ASSERT_OK(ProfileDomains(&data, {"g"}));
  EXPECT_EQ(data.infos[7].Domain("g").kind, AttrDomain::Kind::kValueSet);
  EXPECT_TRUE(data.infos[7].Domain("g").values.empty());
}

}  // namespace
}  // namespace skalla
