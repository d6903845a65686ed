//===- perfbench/src/Trace.cpp - In-memory spans ----------------------------===//

#include "Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {

int32_t Tracer::begin(const char *Name, int64_t Request) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Spans.push_back(S);
  auto Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  DerivedCursor.push_back(S.StartNs);
  return Id;
}

void Tracer::end(int32_t Id) {
  Spans[static_cast<size_t>(Id)].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Id) {
    Open.pop_back();
    DerivedCursor.pop_back();
  }
}

void Tracer::derived(const char *Name, int64_t DurNs) {
  if (!Enabled || Open.empty())
    return;
  Span S;
  S.Name = Name;
  S.Parent = Open.back();
  S.Request = Spans[static_cast<size_t>(S.Parent)].Request;
  S.StartNs = DerivedCursor.back();
  S.EndNs = S.StartNs + DurNs;
  S.Derived = true;
  DerivedCursor.back() = S.EndNs;
  Spans.push_back(S);
}

std::map<std::string, LayerTime> Tracer::layerTimes() const {
  // Child intervals per parent, merged, give the covered part of each
  // span; self time is the rest.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[static_cast<size_t>(S.Parent)].push_back({S.StartNs, S.EndNs});
  std::map<std::string, LayerTime> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto &Iv = Kids[I];
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0;
    int64_t CurS = std::numeric_limits<int64_t>::min(), CurE = CurS;
    for (auto [A, B] : Iv) {
      A = std::max(A, S.StartNs);
      B = std::min(B, S.EndNs);
      if (B <= A)
        continue;
      if (A > CurE) {
        Covered += CurE - CurS;
        CurS = A;
        CurE = B;
      } else {
        CurE = std::max(CurE, B);
      }
    }
    if (CurE > CurS)
      Covered += CurE - CurS;
    LayerTime &L = Out[S.Name];
    ++L.Calls;
    double Dur = static_cast<double>(S.EndNs - S.StartNs) / 1000.0;
    L.TotalUs += Dur;
    L.SelfUs += Dur - static_cast<double>(Covered) / 1000.0;
  }
  return Out;
}

double perCall(const std::map<std::string, LayerTime> &L, const char *Name,
               bool Self) {
  auto It = L.find(Name);
  if (It == L.end() || It->second.Calls == 0)
    return 0;
  return (Self ? It->second.SelfUs : It->second.TotalUs) /
         static_cast<double>(It->second.Calls);
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  int64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
  std::string Buf = "{\"traceEvents\":[\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Buf += I ? ",\n{\"name\":" : "{\"name\":";
    typilus::json::appendQuoted(Buf, S.Name);
    Buf += ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    typilus::json::appendNumber(Buf, static_cast<double>(S.StartNs - T0) / 1000.0);
    Buf += ",\"dur\":";
    typilus::json::appendNumber(Buf, static_cast<double>(S.EndNs - S.StartNs) / 1000.0);
    Buf += ",\"args\":{\"span\":" + std::to_string(I) +
           ",\"parent\":" + std::to_string(S.Parent) +
           ",\"request\":" + std::to_string(S.Request) +
           (S.Derived ? ",\"derived\":true}}" : ",\"derived\":false}}");
    if (Buf.size() > (1u << 20)) {
      std::fwrite(Buf.data(), 1, Buf.size(), F);
      Buf.clear();
    }
  }
  Buf += "\n]}\n";
  std::fwrite(Buf.data(), 1, Buf.size(), F);
  return std::fclose(F) == 0;
}

} // namespace perfbench
