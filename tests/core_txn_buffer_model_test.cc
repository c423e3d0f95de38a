// Model-based property test: a TxnBuffer over a base store must behave
// exactly like "a map overlaying a frozen base" for any random op sequence,
// and ApplyTo must make the base equal the overlay view.

#include <map>
#include <optional>

#include "common/random.h"
#include "core/txn_buffer.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "test_util.h"

namespace txrep::core {
namespace {

class BufferModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferModelTest, MatchesReferenceModel) {
  Random rng(GetParam());

  // Base store with some pre-existing keys.
  kv::InMemoryKvNode base;
  std::map<std::string, std::string> base_model;
  for (int i = 0; i < 30; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(50));
    const std::string value = "base" + std::to_string(i);
    TXREP_ASSERT_OK(base.Put(key, value));
    base_model[key] = value;
  }

  TxnBuffer buffer(&base);
  // Overlay model: nullopt = tombstone.
  std::map<std::string, std::optional<std::string>> overlay;

  auto model_get = [&](const std::string& key) -> std::optional<std::string> {
    auto o = overlay.find(key);
    if (o != overlay.end()) return o->second;
    auto b = base_model.find(key);
    if (b != base_model.end()) return b->second;
    return std::nullopt;
  };

  for (int step = 0; step < 1000; ++step) {
    const std::string key = "k" + std::to_string(rng.Uniform(50));
    switch (rng.Uniform(3)) {
      case 0: {  // Get.
        Result<kv::Value> got = buffer.Get(key);
        std::optional<std::string> expected = model_get(key);
        if (expected.has_value()) {
          ASSERT_TRUE(got.ok()) << "step " << step << " key " << key;
          ASSERT_EQ(*got, *expected);
        } else {
          ASSERT_TRUE(got.status().IsNotFound());
        }
        ASSERT_EQ(buffer.Contains(key), expected.has_value());
        break;
      }
      case 1: {  // Put.
        const std::string value = "v" + std::to_string(step);
        TXREP_ASSERT_OK(buffer.Put(key, value));
        overlay[key] = value;
        break;
      }
      case 2: {  // Delete.
        TXREP_ASSERT_OK(buffer.Delete(key));
        overlay[key] = std::nullopt;
        break;
      }
    }
  }

  // Write set == overlay keys; read set only ever contains probed keys that
  // were not own-writes first.
  ASSERT_EQ(buffer.write_set().size(), overlay.size());
  for (const auto& [key, v] : overlay) {
    ASSERT_TRUE(buffer.write_set().contains(key));
  }

  // Dump of the buffer == model view.
  kv::StoreDump dump = buffer.Dump();
  std::map<std::string, std::string> view;
  for (const auto& [k, v] : base_model) view[k] = v;
  for (const auto& [k, v] : overlay) {
    if (v.has_value()) {
      view[k] = *v;
    } else {
      view.erase(k);
    }
  }
  ASSERT_EQ(dump.size(), view.size());
  size_t i = 0;
  for (const auto& [k, v] : view) {
    ASSERT_EQ(dump[i].first, k);
    ASSERT_EQ(dump[i].second, v);
    ++i;
  }

  // ApplyTo publishes exactly the view.
  TXREP_ASSERT_OK(buffer.ApplyTo(&base));
  kv::StoreDump base_dump = base.Dump();
  ASSERT_EQ(base_dump.size(), view.size());
  i = 0;
  for (const auto& [k, v] : view) {
    ASSERT_EQ(base_dump[i].first, k);
    ASSERT_EQ(base_dump[i].second, v);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace txrep::core
