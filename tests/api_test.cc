#include "api/tcq.h"

#include <gtest/gtest.h>

#include "exec/exact.h"
#include "ra/expr.h"
#include "util/status.h"
#include "workload/generators.h"

namespace tcq {
namespace {

Session MakeSession(int tuples = 2000, uint64_t seed = 7) {
  auto workload = MakeIntersectionWorkload(tuples, seed);
  EXPECT_TRUE(workload.ok());
  return Session(std::move(workload->catalog));
}

TEST(SessionTest, RegisterAndQueryText) {
  auto workload = MakeSelectionWorkload(1000, /*seed=*/3);
  ASSERT_TRUE(workload.ok());
  Session session;
  for (const std::string& name : workload->catalog.Names()) {
    ASSERT_TRUE(session.Register(*workload->catalog.Find(name)).ok());
  }
  auto r = session.Query("SELECT[key < 2000](r1)").WithSeed(5).Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stages_counted, 0);
}

TEST(SessionTest, CountWrapperIsOptional) {
  Session session = MakeSession();
  auto bare = session.Query("SELECT[key < 6000](r1)").WithSeed(9).Run();
  auto wrapped =
      session.Query("COUNT(SELECT[key < 6000](r1))").WithSeed(9).Run();
  auto spaced =
      session.Query("  count( SELECT[key < 6000](r1) ) ").WithSeed(9).Run();
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  EXPECT_EQ(bare->estimate, wrapped->estimate);
  EXPECT_EQ(bare->estimate, spaced->estimate);
  EXPECT_EQ(bare->blocks_sampled, wrapped->blocks_sampled);
}

TEST(SessionTest, ExprQueryMatchesTextQuery) {
  Session session = MakeSession();
  ExprPtr expr = Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, 6000));
  auto from_expr = session.Query(std::move(expr)).WithSeed(9).Run();
  auto from_text = session.Query("SELECT[key < 6000](r1)").WithSeed(9).Run();
  ASSERT_TRUE(from_expr.ok()) << from_expr.status().ToString();
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(from_expr->estimate, from_text->estimate);
  EXPECT_EQ(from_expr->variance, from_text->variance);
  EXPECT_EQ(from_expr->blocks_sampled, from_text->blocks_sampled);
}

TEST(SessionTest, ParseErrorSurfacesFromRun) {
  Session session = MakeSession();
  auto r = session.Query("SELECT[key <](r1)").Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ParseStatusIsAvailableBeforeRun) {
  Session session = MakeSession();
  // A malformed query is rejectable without spending any budget on it —
  // the builder carries the parse error, line/column included.
  QueryBuilder bad = session.Query("SELECT[key <](r1)");
  EXPECT_FALSE(bad.status().ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("line"), std::string::npos)
      << bad.status().ToString();
  // Run() returns exactly the status the builder already exposed.
  auto r = bad.Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), bad.status());

  QueryBuilder good = session.Query("SELECT[key < 100](r1)");
  EXPECT_TRUE(good.status().ok());
}

TEST(SessionTest, TypedSettersCoverEveryOptionsField) {
  // A query configured through typed With* setters alone runs.
  Session a = MakeSession();
  auto typed = a.Query("r1 INTERSECT r2")
                   .WithSeed(21)
                   .WithQuota(6.0)
                   .WithEpsilon(0.04)
                   .WithServeDeadline(30.0)
                   .Run();
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  // Outside a server, the admission report stays at its standalone
  // defaults whatever the serve deadline asks for.
  EXPECT_EQ(typed->admission.outcome, AdmissionReport::Outcome::kStandalone);
  EXPECT_FALSE(typed->admission.deadline_missed);
}

TEST(SessionTest, UnbalancedCountWrapperIsAParseError) {
  Session session = MakeSession();
  auto r = session.Query("COUNT(SELECT[key < 100](r1)").Run();
  EXPECT_FALSE(r.ok());
}

TEST(SessionTest, NullExpressionIsRejected) {
  Session session = MakeSession();
  auto r = session.Query(ExprPtr()).Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ThreadedRunMatchesSerialRun) {
  Session session = MakeSession();
  auto serial = session.Query("r1 UNION r2").WithSeed(11).WithThreads(1).Run();
  auto threaded =
      session.Query("r1 UNION r2").WithSeed(11).WithThreads(4).Run();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_EQ(serial->estimate, threaded->estimate);
  EXPECT_EQ(serial->variance, threaded->variance);
  EXPECT_EQ(serial->blocks_sampled, threaded->blocks_sampled);
}

TEST(SessionTest, SessionDefaultsFlowIntoQueries) {
  auto workload = MakeIntersectionWorkload(2000, /*seed=*/7);
  ASSERT_TRUE(workload.ok());
  Session::Options session_options;
  session_options.defaults.seed = 77;
  session_options.defaults.strategy.one_at_a_time.d_beta = 24.0;
  Session session(std::move(workload->catalog), session_options);

  Session plain = MakeSession();
  auto defaulted = session.Query("r1 INTERSECT r2").Run();
  auto explicit_opts = plain.Query("r1 INTERSECT r2")
                           .WithSeed(77)
                           .WithRiskMargin(24.0)
                           .Run();
  ASSERT_TRUE(defaulted.ok()) << defaulted.status().ToString();
  ASSERT_TRUE(explicit_opts.ok()) << explicit_opts.status().ToString();
  EXPECT_EQ(defaulted->estimate, explicit_opts->estimate);
  EXPECT_EQ(defaulted->blocks_sampled, explicit_opts->blocks_sampled);
}

TEST(SessionTest, SumAndAvgBuilders) {
  Session session = MakeSession();
  auto sum = session.Query("SELECT[key < 6000](r1)")
                 .Sum("key")
                 .WithSeed(13)
                 .Run();
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  auto avg = session.Query("SELECT[key < 6000](r1)")
                 .Avg("key")
                 .WithSeed(13)
                 .Run();
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  ASSERT_GT(sum->estimate, 0.0);
  ASSERT_GT(avg->estimate, 0.0);
  // An average is a per-tuple quantity; the sum over thousands of tuples
  // must dwarf it.
  EXPECT_GT(sum->estimate, avg->estimate);
}

TEST(ValidateTest, RejectsNonsenseConfigs) {
  Session session = MakeSession();
  {
    auto r = session.Query("r1 UNION r2").WithThreads(0).Run();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto r = session.Query("r1 UNION r2").WithConfidence(1.5).Run();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto r = session.Query("r1 UNION r2").WithConfidence(0.0).Run();
    EXPECT_FALSE(r.ok());
  }
  {
    auto r = session.Query("r1 UNION r2").WithEpsilon(1.25).Run();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto r = session.Query("r1 UNION r2").WithServeDeadline(-1.0).Run();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto r = session.Query("r1 UNION r2").WithMaxStages(0).Run();
    EXPECT_FALSE(r.ok());
  }
  {
    auto r = session.Query("r1 UNION r2").WithQuota(-1.0).Run();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ValidateTest, DirectOptionsValidate) {
  ExecutorOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.threads = -3;
  EXPECT_FALSE(options.Validate().ok());
  options.threads = 8;
  EXPECT_TRUE(options.Validate().ok());
  options.epsilon_s = 0.0;
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace tcq
