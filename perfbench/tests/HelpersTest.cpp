//===- perfbench/tests/HelpersTest.cpp - Benchmark helper tests -------------===//

#include "Helpers.h"

#include "core/Predictor.h"
#include "serve/Protocol.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;

TEST(Percentile, HighestWithTenBeyond) {
  // p99 needs 1000 samples (10 beyond rank 990); below that the rule
  // falls back to the highest percentile that still has ten beyond it.
  EXPECT_EQ(supportedPercentile(1000), 99.0);
  EXPECT_EQ(supportedPercentile(999), 98.0);
  EXPECT_EQ(supportedPercentile(500), 98.0);
  EXPECT_EQ(supportedPercentile(499), 97.0);
  EXPECT_EQ(supportedPercentile(100), 90.0);
  EXPECT_EQ(supportedPercentile(20), 50.0);
  EXPECT_EQ(supportedPercentile(19), 0.0);
  EXPECT_EQ(supportedPercentile(100000), 99.0) << "capped at the wanted tail";
  EXPECT_EQ(supportedPercentile(100000, 99.9), 99.9);
}

TEST(Percentile, NearestRank) {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 50), 500);
  EXPECT_EQ(percentile(V, 99), 990);
  EXPECT_EQ(percentile(V, 100), 1000);
  Summary S = summarize(V);
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_EQ(S.TailPct, 99.0);
  EXPECT_EQ(S.TailMs, 990);
  EXPECT_EQ(S.P50Ms, 500);
  EXPECT_EQ(S.MaxMs, 1000);
}

TEST(Percentile, InterpolatedQuantile) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  // A request due at 1000us, sent 300us late, answered at 5000us: its
  // latency includes the generator's lateness.
  Timeline T{1000, 1300, 5000, true};
  EXPECT_DOUBLE_EQ(latencyFromDueMs(T), 4.0);
  EXPECT_DOUBLE_EQ(lagMs(T), 0.3);
  EXPECT_DOUBLE_EQ(dueUs(100, 200, 0), 100);
  EXPECT_DOUBLE_EQ(dueUs(100, 200, 3), 100 + 3 * 5000);
}

TEST(OpenLoop, StallChargesEveryRequestBehindIt) {
  // 40 requests due every 1ms; the server stalls until 50ms before
  // answering the first 20 at once. Every stalled request is charged from
  // its own due time (31..50ms), so the supported tail (p75 of 40
  // samples) shows the stall, not the 2ms service time.
  std::vector<Timeline> Ts;
  for (int I = 0; I != 40; ++I) {
    double Due = I * 1000.0;
    double Done = I < 20 ? 50000 : Due + 2000;
    Ts.push_back({Due, Due, Done, true});
  }
  PhaseStats S = summarizePhase(Ts);
  EXPECT_EQ(S.Sent, 40u);
  EXPECT_EQ(S.Ok, 40u);
  EXPECT_DOUBLE_EQ(S.Latency.MaxMs, 50.0);
  EXPECT_EQ(S.Latency.TailPct, 75.0);
  EXPECT_DOUBLE_EQ(S.Latency.TailMs, 40.0);
  EXPECT_DOUBLE_EQ(S.Lag.MaxMs, 0.0);
}

TEST(OpenLoop, UnansweredAndWrongCountAsFailed) {
  std::vector<Timeline> Ts;
  for (int I = 0; I != 30; ++I)
    Ts.push_back({I * 1000.0, I * 1000.0, I * 1000.0 + 3000, true});
  Ts[5].Ok = false;   // answered, but the check rejected it
  Ts[6].DoneUs = -1;  // never answered
  Ts[7].SentUs = -1;  // never sent: not part of the phase
  PhaseStats S = summarizePhase(Ts);
  EXPECT_EQ(S.Sent, 29u);
  EXPECT_EQ(S.Answered, 28u);
  EXPECT_EQ(S.Ok, 27u);
  EXPECT_EQ(S.Failed, 2u);
  EXPECT_EQ(S.Latency.Count, 28u) << "latency is over answered requests";
}

TEST(ClosedLoop, CompletionRateCountsOnlyTheWindow) {
  // 100 responses 10ms apart from t=0; a window of [0.2s, 0.7s) holds 50.
  std::vector<Timeline> Ts;
  for (int I = 0; I != 100; ++I)
    Ts.push_back({0, 0, I * 10000.0, true});
  Ts.push_back({0, 0, -1, false}); // still in flight at the end
  EXPECT_DOUBLE_EQ(completionRate(Ts, 0.2e6, 0.7e6), 100.0);
  // Twice the service time halves the rate over the same window.
  for (Timeline &T : Ts)
    T.DoneUs *= 2;
  EXPECT_DOUBLE_EQ(completionRate(Ts, 0.2e6, 0.7e6), 50.0);
  EXPECT_DOUBLE_EQ(completionRate(Ts, 1e6, 1e6), 0.0);
}

TEST(Inputs, DistinctSourcesAreDistinctAndDeterministic) {
  auto A = distinctSources(7, 40, 300, 1, "req");
  ASSERT_EQ(A.size(), 300u);
  std::set<std::string> Sources, Paths;
  for (const auto &F : A) {
    Sources.insert(F.Source);
    Paths.insert(F.Path);
  }
  EXPECT_EQ(Sources.size(), 300u);
  EXPECT_EQ(Paths.size(), 300u);
  auto B = distinctSources(7, 40, 300, 1, "req");
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A[I].Source, B[I].Source);
  // Another sample seed draws other files from the same pool.
  auto C = distinctSources(7, 40, 300, 2, "req");
  size_t Same = 0;
  for (size_t I = 0; I != A.size(); ++I)
    Same += A[I].Source == C[I].Source;
  EXPECT_LT(Same, 10u);
  // None of them is one of the project's first 40 (training) files.
  typilus::CorpusConfig CC;
  CC.Seed = 7;
  CC.NumFiles = 40;
  CC.DuplicateFraction = 0;
  for (const auto &T : typilus::CorpusGenerator(CC).generate())
    EXPECT_EQ(Sources.count(T.Source), 0u);
}

TEST(Inputs, EditScriptKeepsBlocksAndIsSeeded) {
  auto Files = distinctSources(11, 40, 12, 1, "edit");
  std::vector<typilus::CorpusFile> Docs(Files.begin(), Files.begin() + 4);
  std::vector<typilus::CorpusFile> Donors(Files.begin() + 4, Files.end());
  for (const auto &D : Docs) {
    std::string Joined;
    for (const std::string &B : topLevelBlocks(D.Source))
      Joined += B;
    EXPECT_EQ(Joined, D.Source);
  }
  auto Ops = editScript(Docs, Donors, 200, 5);
  ASSERT_EQ(Ops.size(), 204u);
  size_t Opens = 0, Changes = 0, Closes = 0;
  for (const EditOp &Op : Ops) {
    Opens += Op.K == EditOp::Open;
    Changes += Op.K == EditOp::Change;
    Closes += Op.K == EditOp::Close;
  }
  EXPECT_GT(Changes, 100u);
  EXPECT_GT(Closes, 0u);
  EXPECT_GT(Opens, 4u) << "closed documents are reopened";
  auto Again = editScript(Docs, Donors, 200, 5);
  for (size_t I = 0; I != Ops.size(); ++I)
    EXPECT_EQ(Ops[I].Text, Again[I].Text);
}

TEST(Inputs, EditScriptSeedOnlyInterleavesDocuments) {
  auto Files = distinctSources(11, 40, 12, 1, "edit");
  std::vector<typilus::CorpusFile> Docs(Files.begin(), Files.begin() + 4);
  std::vector<typilus::CorpusFile> Donors(Files.begin() + 4, Files.end());
  // Each document's sequence of opens, changes, closes and texts is
  // fixed; the seed only changes the order the documents take turns in.
  auto PerDoc = [&](uint64_t Seed, std::vector<int> *Order) {
    std::vector<std::vector<std::pair<EditOp::Kind, std::string>>> Steps(Docs.size());
    for (const EditOp &Op : editScript(Docs, Donors, 200, Seed)) {
      Steps[static_cast<size_t>(Op.Doc)].emplace_back(Op.K, Op.Text);
      Order->push_back(Op.Doc);
    }
    return Steps;
  };
  std::vector<int> OrderA, OrderB;
  auto A = PerDoc(5, &OrderA);
  auto B = PerDoc(6, &OrderB);
  EXPECT_EQ(A, B);
  EXPECT_NE(OrderA, OrderB);
  size_t Closes = 0;
  for (const auto &Doc : A)
    for (const auto &Step : Doc)
      Closes += Step.first == EditOp::Close;
  EXPECT_NEAR(static_cast<double>(Closes), 200.0 / 16, 1) << "one close per 16 visits";
}

TEST(Checks, ResponseIdAndDigest) {
  EXPECT_EQ(responseId("{\"id\":42,\"ok\":true}"), 42);
  EXPECT_EQ(responseId("{\"ok\":true}"), -1);
  EXPECT_EQ(digestField("{\"id\":1,\"digest\":\"00ff\",\"x\":1}"), "00ff");
}

TEST(Checks, TamperedResponseIsCountedAsFailed) {
  typilus::PredictionResult P;
  P.FilePath = "a.py";
  P.TargetIdx = 0;
  P.SymbolName = "x";
  std::vector<typilus::PredictionResult> Preds{P};
  std::string Want = typilus::serve::predictResponse(7, "a.py", Preds, -1);
  std::string Why;
  EXPECT_TRUE(checkResponse(Want, Want, &Why));

  std::string BadDigest = Want;
  size_t D = BadDigest.find("\"digest\":\"") + 10;
  BadDigest[D] = BadDigest[D] == '0' ? '1' : '0';
  EXPECT_FALSE(checkResponse(BadDigest, Want, &Why));
  EXPECT_EQ(Why, "digest mismatch");

  std::string BadBody = Want;
  BadBody.replace(BadBody.find("\"x\""), 3, "\"y\"");
  EXPECT_FALSE(checkResponse(BadBody, Want, &Why));
  EXPECT_EQ(Why, "content mismatch");
}
