// Model-based randomized tests ("fuzz" in the property-testing sense):
// random operation sequences run against both the real component and a
// trivially correct in-memory model, with random reopen (recovery) points
// and random corruption, across several seeds (TEST_P).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flight_recorder.h"
#include "common/random.h"
#include "flstore/controller.h"
#include "flstore/indexer.h"
#include "storage/log_store.h"
#include "storage/meta_wal.h"

namespace chariots {
namespace {

namespace fs = std::filesystem;
using storage::LogStore;
using storage::LogStoreOptions;
using storage::SyncMode;

class LogStoreFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("chariots_fuzz_" + std::to_string(GetParam()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  LogStoreOptions Options() {
    LogStoreOptions o;
    o.dir = dir_.string();
    o.segment_bytes = 512;  // force frequent rotation
    return o;
  }

  fs::path dir_;
};

// Random interleavings of Append / Remove / Get / TruncateBelow / reopen
// must always agree with a std::map model.
TEST_P(LogStoreFuzzTest, MatchesModelAcrossReopens) {
  Random rng(GetParam());
  std::map<uint64_t, std::string> model;
  auto store = std::make_unique<LogStore>(Options());
  ASSERT_TRUE(store->Open().ok());
  uint64_t truncate_horizon = 0;

  for (int op = 0; op < 800; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      // Append at a random (possibly occupied) lid.
      uint64_t lid = rng.Uniform(200);
      std::string payload = rng.NextString(rng.Uniform(60) + 1);
      Status s = store->Append(lid, payload);
      if (model.count(lid)) {
        EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << "lid " << lid;
      } else {
        ASSERT_TRUE(s.ok()) << s;
        model[lid] = payload;
      }
    } else if (dice < 0.7) {
      // Remove.
      uint64_t lid = rng.Uniform(200);
      Status s = store->Remove(lid);
      if (model.count(lid)) {
        ASSERT_TRUE(s.ok()) << s;
        model.erase(lid);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else if (dice < 0.9) {
      // Point read.
      uint64_t lid = rng.Uniform(200);
      auto r = store->Get(lid);
      if (model.count(lid)) {
        ASSERT_TRUE(r.ok()) << "lid " << lid << ": " << r.status();
        EXPECT_EQ(*r, model[lid]);
      } else {
        EXPECT_TRUE(r.status().IsNotFound()) << "lid " << lid;
      }
    } else if (dice < 0.95) {
      // GC: only whole cold segments go, so the model can't predict the
      // exact survivors — but everything at/above the horizon must stay,
      // and nothing GC'd may reappear later. Track via re-sync of model.
      truncate_horizon = rng.Uniform(200);
      ASSERT_TRUE(store->TruncateBelow(truncate_horizon).ok());
      for (auto it = model.begin(); it != model.end();) {
        if (it->first < truncate_horizon && !store->Contains(it->first)) {
          it = model.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      // Crash-free reopen (recovery path).
      store = std::make_unique<LogStore>(Options());
      ASSERT_TRUE(store->Open().ok()) << "op " << op;
    }
  }

  // Final full comparison (also after one last reopen).
  store = std::make_unique<LogStore>(Options());
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->count(), model.size());
  for (const auto& [lid, payload] : model) {
    auto r = store->Get(lid);
    ASSERT_TRUE(r.ok()) << "lid " << lid;
    EXPECT_EQ(*r, payload);
  }
}

// Random single-byte corruption anywhere in a non-final segment must be
// detected as corruption on reopen — never silently accepted.
TEST_P(LogStoreFuzzTest, RandomCorruptionIsNeverSilent) {
  Random rng(GetParam() * 31 + 7);
  {
    LogStore store(Options());
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 60; ++lid) {
      ASSERT_TRUE(store.Append(lid, rng.NextString(40)).ok());
    }
  }
  std::vector<fs::path> segments;
  for (auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("seg-", 0) == 0) {
      segments.push_back(e.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GT(segments.size(), 2u);
  // Corrupt a random byte in a random non-final segment.
  fs::path victim = segments[rng.Uniform(segments.size() - 1)];
  uintmax_t size = fs::file_size(victim);
  uintmax_t pos = rng.Uniform(size);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(pos));
    char c = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(pos));
    f.put(static_cast<char>(c ^ (1 << rng.Uniform(8))));
  }
  LogStore store(Options());
  Status s = store.Open();
  EXPECT_TRUE(s.IsCorruption()) << "flip at " << victim << "+" << pos
                                << " -> " << s;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogStoreFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Indexer vs model: random adds (with duplicates, out of order) and
// truncations; queries must match a brute-force scan.
class IndexerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexerFuzzTest, LookupMatchesBruteForce) {
  Random rng(GetParam() * 97 + 3);
  flstore::Indexer indexer;
  // model: key -> (lid -> value)
  std::map<std::string, std::map<uint64_t, std::string>> model;

  for (int op = 0; op < 600; ++op) {
    std::string key = "k" + std::to_string(rng.Uniform(8));
    if (rng.NextDouble() < 0.8) {
      uint64_t lid = rng.Uniform(500);
      std::string value = std::to_string(rng.Uniform(100));
      indexer.Add(key, value, lid);
      model[key].emplace(lid, value);  // idempotent like the indexer
    } else {
      uint64_t horizon = rng.Uniform(500);
      indexer.TruncateBelow(horizon);
      for (auto& [k, postings] : model) {
        postings.erase(postings.begin(), postings.lower_bound(horizon));
      }
    }

    // Random query, checked against the model.
    flstore::IndexQuery query;
    query.key = "k" + std::to_string(rng.Uniform(8));
    query.limit = static_cast<uint32_t>(rng.Uniform(5)) + 1;
    if (rng.OneIn(0.3)) query.before_lid = rng.Uniform(500);
    if (rng.OneIn(0.3)) query.value_min = rng.Uniform(100);
    auto got = indexer.Lookup(query);

    std::vector<flstore::Posting> want;
    auto it = model.find(query.key);
    if (it != model.end()) {
      for (auto rit = it->second.rbegin();
           rit != it->second.rend() && want.size() < query.limit; ++rit) {
        if (query.before_lid != flstore::kInvalidLId &&
            rit->first >= query.before_lid) {
          continue;
        }
        if (query.value_min &&
            std::stoll(rit->second) < *query.value_min) {
          continue;
        }
        want.push_back({rit->first, rit->second});
      }
    }
    ASSERT_EQ(got, want) << "op " << op << " key " << query.key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexerFuzzTest,
                         ::testing::Values(10, 20, 30, 40));

// Control-plane codecs under hostile input: every truncation and random
// bitflip of an encoded ControllerState / ClusterInfo must come back as a
// Status (or decode to garbage), never crash or over-allocate — these bytes
// cross the wire (kCtrlReplicateState) and live in the meta WAL.
class ControlPlaneFuzzTest : public ::testing::TestWithParam<uint64_t> {};

flstore::ControllerState RandomControllerState(Random& rng) {
  flstore::ControllerState state;
  uint32_t stripes = 1 + static_cast<uint32_t>(rng.Uniform(4));
  state.info.journal =
      flstore::EpochJournal(stripes, 1 + rng.Uniform(1000));
  for (uint32_t i = 0; i < stripes; ++i) {
    state.info.maintainers.push_back("m" + std::to_string(i) + "/" +
                                     rng.NextString(1 + rng.Uniform(12)));
    std::vector<net::NodeId> replicas;
    for (uint64_t r = rng.Uniform(3); r > 0; --r) {
      replicas.push_back(rng.NextString(1 + rng.Uniform(10)));
    }
    state.info.replicas.push_back(std::move(replicas));
    state.info.fence_epochs.push_back(1 + rng.Uniform(50));
  }
  for (uint64_t i = rng.Uniform(3); i > 0; --i) {
    state.info.indexers.push_back("idx" + rng.NextString(4));
  }
  state.info.version = rng.Uniform(1000);
  state.info.ctrl_epoch = 1 + rng.Uniform(100);
  state.max_granted_epoch = rng.Uniform(200);
  if (rng.OneIn(0.7)) {
    flstore::FailoverPlan plan;
    plan.index = rng.Uniform(stripes);
    plan.new_epoch = 2 + rng.Uniform(50);
    plan.candidate = rng.NextString(6);
    plan.failed_primary = rng.NextString(6);
    for (uint64_t r = rng.Uniform(3); r > 0; --r) {
      plan.survivors.push_back(rng.NextString(5));
    }
    state.inflight_failovers.push_back(std::move(plan));
  }
  if (rng.OneIn(0.5)) {
    flstore::ReplicaRemoval removal;
    removal.index = rng.Uniform(stripes);
    removal.new_epoch = 2 + rng.Uniform(50);
    removal.removed = rng.NextString(6);
    removal.coordinator = rng.NextString(6);
    state.inflight_removals.push_back(std::move(removal));
  }
  return state;
}

TEST_P(ControlPlaneFuzzTest, StateDecodersNeverCrash) {
  Random rng(GetParam() * 131 + 7);
  flstore::ControllerState state = RandomControllerState(rng);
  std::string bytes = flstore::EncodeControllerState(state);

  // Canonical round trip: decode(encode(x)) re-encodes byte-identically.
  auto decoded = flstore::DecodeControllerState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(flstore::EncodeControllerState(*decoded), bytes);
  auto info = flstore::DecodeClusterInfo(flstore::EncodeClusterInfo(state.info));
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(flstore::EncodeClusterInfo(*info),
            flstore::EncodeClusterInfo(state.info));

  // Every truncation point: a Status or a benign partial decode — no crash,
  // no unbounded allocation (count guards cap vectors by remaining bytes).
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string_view prefix(bytes.data(), cut);
    (void)flstore::DecodeControllerState(prefix);
    (void)flstore::DecodeClusterInfo(prefix);
  }
  // Random single-bit corruption.
  for (int i = 0; i < 300; ++i) {
    std::string mutated = bytes;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<char>(1u << rng.Uniform(8));
    (void)flstore::DecodeControllerState(mutated);
    (void)flstore::DecodeClusterInfo(mutated);
  }
}

// Meta-WAL frame scan under truncation and bitflips: the scan must never
// crash, and whatever payload it recovers must be byte-identical to one of
// the frames actually written (CRC32C catches every single-bit flip, so a
// damaged frame ends the scan at the previous intact one).
TEST_P(ControlPlaneFuzzTest, MetaWalFrameScanNeverCrashes) {
  Random rng(GetParam() * 19 + 5);
  std::vector<std::string> bodies;
  std::string image;
  int frames = 1 + static_cast<int>(rng.Uniform(6));
  for (int i = 0; i < frames; ++i) {
    bodies.push_back(rng.NextString(1 + rng.Uniform(120)));
    image += storage::MetaWal::EncodeFrame(bodies.back());
  }

  auto whole = storage::MetaWal::ScanLastFrame(image);
  ASSERT_TRUE(whole.ok()) << whole.status();
  ASSERT_TRUE(whole->has_value());
  EXPECT_EQ(**whole, bodies.back());

  auto is_known_body = [&](const std::string& body) {
    return std::find(bodies.begin(), bodies.end(), body) != bodies.end();
  };

  // Every truncation: the scan keeps the longest intact frame prefix.
  for (size_t cut = 0; cut <= image.size(); ++cut) {
    size_t valid = 0, count = 0;
    auto r = storage::MetaWal::ScanLastFrame(
        std::string_view(image.data(), cut), &valid, &count);
    ASSERT_TRUE(r.ok()) << "cut " << cut << ": " << r.status();
    EXPECT_LE(valid, cut);
    EXPECT_LE(count, bodies.size());
    if (r->has_value()) {
      EXPECT_TRUE(is_known_body(**r)) << "cut " << cut;
    }
  }
  // Random single-bit corruption anywhere in the image.
  for (int i = 0; i < 300; ++i) {
    std::string mutated = image;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<char>(1u << rng.Uniform(8));
    auto r = storage::MetaWal::ScanLastFrame(mutated);
    ASSERT_TRUE(r.ok()) << "flip at " << pos << ": " << r.status();
    if (r->has_value()) {
      EXPECT_TRUE(is_known_body(**r)) << "flip at " << pos;
    }
  }
}

// File-level torn tail: truncating a meta WAL at any point must reopen
// cleanly and recover a state that was actually appended (or none at all).
TEST_P(ControlPlaneFuzzTest, MetaWalTornTailRecovery) {
  Random rng(GetParam() * 311 + 13);
  fs::path dir = fs::temp_directory_path() /
                 ("chariots_fuzz_metawal_" + std::to_string(GetParam()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string path = (dir / "meta.wal").string();

  std::vector<std::string> appended;
  {
    storage::MetaWal::Options o;
    o.path = path;
    storage::MetaWal wal(o);
    ASSERT_TRUE(wal.Open().ok());
    int n = 2 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < n; ++i) {
      appended.push_back(rng.NextString(1 + rng.Uniform(200)));
      ASSERT_TRUE(wal.Append(appended.back()).ok());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());

  for (int i = 0; i < 8; ++i) {
    size_t cut = rng.Uniform(bytes.size() + 1);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    storage::MetaWal::Options o;
    o.path = path;
    storage::MetaWal wal(o);
    ASSERT_TRUE(wal.Open().ok()) << "cut " << cut;
    if (wal.recovered().has_value()) {
      EXPECT_NE(std::find(appended.begin(), appended.end(),
                          *wal.recovered()),
                appended.end())
          << "cut " << cut;
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlPlaneFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

// ------------------------------------------------ flight-recorder dumps

class FlightRecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// The dump decoder ingests whatever a crash handler, a half-written breach
// file, or a truncated HTTP body hands it: every truncation, bit flip, and
// random prefix must come back as a Status — never a crash, never an
// out-of-bounds read (flight_recorder.h contract).
TEST_P(FlightRecFuzzTest, DumpDecoderNeverCrashesOnDamage) {
  Random rng(GetParam());

  // A real dump with a wrapped ring, so every section of the format —
  // header, ring frames, drop counts, CRC — is present and non-trivial.
  flightrec::Recorder rec(16);
  int events = 8 + static_cast<int>(rng.Uniform(40));
  for (int i = 0; i < events; ++i) {
    rec.Record(static_cast<flightrec::EventType>(rng.Uniform(16)),
               static_cast<uint16_t>(rng.Uniform(64)),
               static_cast<uint32_t>(rng.Uniform(1 << 20)), rng.Next(),
               rng.Next());
  }
  std::string good = rec.Dump();
  flightrec::DecodedDump dump;
  ASSERT_TRUE(flightrec::Recorder::Decode(good, &dump).ok());

  // Every possible truncation point.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Status s = flightrec::Recorder::Decode(
        std::string_view(good.data(), cut), &dump);
    EXPECT_FALSE(s.ok()) << "truncation at " << cut << " decoded";
  }

  // Random single-byte flips: either the damage is detected or the dump
  // still decodes (a flip confined to CRC-covered bytes must be caught;
  // one in the already-validated prefix of a later frame may land in a
  // field whose value is simply different — but never a crash).
  for (int i = 0; i < 64; ++i) {
    std::string flipped = good;
    size_t at = rng.Uniform(flipped.size());
    flipped[at] = static_cast<char>(flipped[at] ^ (1 + rng.Uniform(255)));
    flightrec::DecodedDump out;
    Status s = flightrec::Recorder::Decode(flipped, &out);
    if (s.ok()) {
      // A surviving decode must still be internally consistent.
      EXPECT_LE(out.events.size(),
                static_cast<size_t>(out.recorded));
    }
  }

  // Random garbage and random prefixes of garbage.
  for (int i = 0; i < 32; ++i) {
    std::string junk = rng.NextString(rng.Uniform(512) + 1);
    flightrec::DecodedDump out;
    (void)flightrec::Recorder::Decode(junk, &out);
    // Garbage wearing the right magic exercises the deeper parsers.
    if (junk.size() >= 4) {
      junk.replace(0, 4, "CHFR");
      (void)flightrec::Recorder::Decode(junk, &out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlightRecFuzzTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace chariots
