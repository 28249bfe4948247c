// Unit tests of the sibling-group split of the Eqs 13-14 advance
// (infer/policy_forward.h): one AdvanceSharedRaw per beam parent followed by
// one AdvanceChildRaw per child must leave every child byte-for-byte where
// an independent AdvanceRaw from the parent's state leaves it. The beam
// search's compiled driver relies on this (DESIGN.md §12); the end-to-end
// compiled-vs-tape goldens live in compiled_inference_test.cc.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "infer/policy_forward.h"
#include "infer/precision.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace cadrl {
namespace infer {
namespace {

constexpr int kDim = 8;
constexpr int kHidden = 12;
constexpr int kChildren = 5;

std::vector<float> RandomVec(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

// Random policy parameters; only the advance path (both LSTMs and both
// history mixes) is populated.
struct RandomPolicy {
  explicit RandomPolicy(bool share_history) : rng(41) {
    const size_t g4 = 4 * kHidden;
    lstm_c_wx = RandomVec(&rng, g4 * 2 * kDim);
    lstm_c_wh = RandomVec(&rng, g4 * kHidden);
    lstm_c_b = RandomVec(&rng, g4);
    lstm_e_wx = RandomVec(&rng, g4 * 3 * kDim);
    lstm_e_wh = RandomVec(&rng, g4 * kHidden);
    lstm_e_b = RandomVec(&rng, g4);
    mix_c_w = RandomVec(&rng, kHidden * 2 * kHidden);
    mix_e_w = RandomVec(&rng, kHidden * 2 * kHidden);
    view.dim = kDim;
    view.hidden = kHidden;
    view.share_history = share_history;
    view.lstm_c = {lstm_c_wx.data(), lstm_c_wh.data(), lstm_c_b.data(),
                   2 * kDim, kHidden};
    view.lstm_e = {lstm_e_wx.data(), lstm_e_wh.data(), lstm_e_b.data(),
                   3 * kDim, kHidden};
    view.mix_c = {mix_c_w.data(), nullptr, 2 * kHidden, kHidden};
    view.mix_e = {mix_e_w.data(), nullptr, 2 * kHidden, kHidden};
  }

  Rng rng;
  std::vector<float> lstm_c_wx, lstm_c_wh, lstm_c_b;
  std::vector<float> lstm_e_wx, lstm_e_wh, lstm_e_b;
  std::vector<float> mix_c_w, mix_e_w;
  PolicyParamsView view;
};

// An embedding table of `rows` random rows in f32 or int8 form; Row()
// hands out spans the way the compiled driver does (RowSpan, which
// dequantizes int8 rows into a caller-owned slot).
struct Table {
  Table(Rng* rng, int rows, Precision p) : precision(p) {
    f32 = RandomVec(rng, static_cast<size_t>(rows) * kDim);
    if (p == Precision::kInt8) {
      q8.resize(f32.size());
      scales.resize(static_cast<size_t>(rows));
      zps.resize(static_cast<size_t>(rows));
      for (int r = 0; r < rows; ++r) {
        const size_t off = static_cast<size_t>(r) * kDim;
        kernels::QuantizeRowQ8(f32.data() + off, kDim, q8.data() + off,
                               &scales[static_cast<size_t>(r)],
                               &zps[static_cast<size_t>(r)]);
      }
      table.q8 = q8.data();
      table.q8_scale = scales.data();
      table.q8_zp = zps.data();
    } else {
      table.f32 = f32.data();
    }
  }
  std::span<const float> Row(int r, std::vector<float>* slot) const {
    return RowSpan(table, precision, kDim, r, slot);
  }

  Precision precision;
  std::vector<float> f32;
  std::vector<int8_t> q8;
  std::vector<uint16_t> scales, zps;
  RowTable table;
};

void ExpectSameBytes(const std::vector<float>& a, const std::vector<float>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

TEST(AdvanceSplitTest, SharedHalfThenChildHalvesEqualIndependentAdvances) {
  for (const bool share_history : {true, false}) {
    for (const Precision precision : {Precision::kF32, Precision::kInt8}) {
      for (const bool zero_category : {true, false}) {
        SCOPED_TRACE(std::string("share_history=") +
                     (share_history ? "on" : "off") + " rows=" +
                     PrecisionName(precision) + " category=" +
                     (zero_category ? "zero" : "real"));
        RandomPolicy policy(share_history);
        const PolicyParamsView& view = policy.view;
        Rng rng(7);
        const Table entities(&rng, kChildren + 1, precision);
        const Table relations(&rng, kChildren, precision);
        const Table categories(&rng, 2, precision);
        const std::vector<float> zeros(kDim, 0.0f);

        RawPolicyState parent;
        parent.cat_h = RandomVec(&rng, kHidden);
        parent.cat_c = RandomVec(&rng, kHidden);
        parent.ent_h = RandomVec(&rng, kHidden);
        parent.ent_c = RandomVec(&rng, kHidden);

        // One operand slot per position, as in the compiled driver.
        std::vector<float> user_slot, cat_slot, rel_slot, ent_slot;
        const auto user = [&] { return entities.Row(kChildren, &user_slot); };
        const auto cat = [&]() -> std::span<const float> {
          if (zero_category) return {zeros.data(), zeros.size()};
          return categories.Row(1, &cat_slot);
        };

        // Reference: every child advanced on its own from a parent copy.
        std::vector<RawPolicyState> expected(kChildren, parent);
        for (int c = 0; c < kChildren; ++c) {
          PolicyScratch fresh;
          AdvanceRaw(view, &expected[static_cast<size_t>(c)], user(), cat(),
                     relations.Row(c, &rel_slot), entities.Row(c, &ent_slot),
                     &fresh);
        }

        // Split: one shared half, then every child half through the same
        // scratch, so a result the shared half left in scratch would be
        // overwritten by the first child and corrupt the second.
        PolicyScratch scratch;
        AdvanceShared shared;
        AdvanceSharedRaw(view, parent, user(), cat(), &scratch, &shared);
        std::vector<RawPolicyState> children(kChildren);
        for (int c = 0; c < kChildren; ++c) {
          AdvanceChildRaw(view, parent, shared, user(),
                          relations.Row(c, &rel_slot),
                          entities.Row(c, &ent_slot), &scratch,
                          &children[static_cast<size_t>(c)]);
        }

        for (int c = 0; c < kChildren; ++c) {
          const RawPolicyState& want = expected[static_cast<size_t>(c)];
          const RawPolicyState& got = children[static_cast<size_t>(c)];
          const std::string child = "child " + std::to_string(c);
          ExpectSameBytes(got.cat_h, want.cat_h, child + " cat_h");
          ExpectSameBytes(got.cat_c, want.cat_c, child + " cat_c");
          ExpectSameBytes(got.ent_h, want.ent_h, child + " ent_h");
          ExpectSameBytes(got.ent_c, want.ent_c, child + " ent_c");
        }
        // The children really differ: the split is not vacuously equal.
        EXPECT_NE(std::memcmp(children[0].ent_h.data(),
                              children[1].ent_h.data(),
                              kHidden * sizeof(float)),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace infer
}  // namespace cadrl
