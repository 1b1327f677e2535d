#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <deque>
#include <memory>
#include <random>
#include <string>

namespace syncpat::util {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(4);
  rb.push_back(1);
  rb.push_back(2);
  rb.push_back(3);
  EXPECT_EQ(rb.pop_front(), 1);
  EXPECT_EQ(rb.pop_front(), 2);
  EXPECT_EQ(rb.pop_front(), 3);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, FullAtCapacity) {
  RingBuffer<int> rb(2);
  rb.push_back(1);
  EXPECT_FALSE(rb.full());
  rb.push_back(2);
  EXPECT_TRUE(rb.full());
}

TEST(RingBuffer, PushFrontBypassesQueue) {
  RingBuffer<int> rb(4);
  rb.push_back(1);
  rb.push_back(2);
  rb.push_front(99);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.pop_front(), 99);
  EXPECT_EQ(rb.pop_front(), 1);
  EXPECT_EQ(rb.pop_front(), 2);
}

TEST(RingBuffer, PushFrontIntoEmpty) {
  RingBuffer<int> rb(2);
  rb.push_front(7);
  EXPECT_EQ(rb.front(), 7);
  EXPECT_EQ(rb.pop_front(), 7);
}

TEST(RingBuffer, WrapAroundPreservesOrder) {
  RingBuffer<int> rb(3);
  for (int round = 0; round < 10; ++round) {
    rb.push_back(round * 2);
    rb.push_back(round * 2 + 1);
    EXPECT_EQ(rb.pop_front(), round * 2);
    EXPECT_EQ(rb.pop_front(), round * 2 + 1);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, AtIndexesFromHead) {
  RingBuffer<int> rb(4);
  rb.push_back(10);
  rb.push_back(20);
  rb.push_back(30);
  rb.pop_front();
  rb.push_back(40);  // forces wrap with capacity 4 eventually
  EXPECT_EQ(rb.at(0), 20);
  EXPECT_EQ(rb.at(1), 30);
  EXPECT_EQ(rb.at(2), 40);
}

TEST(RingBuffer, RemoveAtMiddlePreservesOrder) {
  RingBuffer<int> rb(4);
  rb.push_back(1);
  rb.push_back(2);
  rb.push_back(3);
  rb.push_back(4);
  EXPECT_EQ(rb.remove_at(1), 2);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.pop_front(), 1);
  EXPECT_EQ(rb.pop_front(), 3);
  EXPECT_EQ(rb.pop_front(), 4);
}

TEST(RingBuffer, RemoveAtHeadAndTail) {
  RingBuffer<int> rb(3);
  rb.push_back(1);
  rb.push_back(2);
  rb.push_back(3);
  EXPECT_EQ(rb.remove_at(0), 1);
  EXPECT_EQ(rb.remove_at(1), 3);
  EXPECT_EQ(rb.pop_front(), 2);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push_back(1);
  rb.push_back(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push_back(3);
  EXPECT_EQ(rb.front(), 3);
}

TEST(RingBuffer, CapacityOneWorks) {
  RingBuffer<std::string> rb(1);
  rb.push_back("x");
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop_front(), "x");
  rb.push_front("y");
  EXPECT_EQ(rb.pop_front(), "y");
}

TEST(RingBuffer, MoveOnlyFriendly) {
  RingBuffer<std::unique_ptr<int>> rb(2);
  rb.push_back(std::make_unique<int>(5));
  auto p = rb.pop_front();
  EXPECT_EQ(*p, 5);
}

// Randomized model check against std::deque: every operation is mirrored on
// the model and the whole contents compared after each step, at capacities
// that wrap at one slot, at odd sizes and at a power of two.
TEST(RingBuffer, MatchesDequeModelUnderRandomOps) {
  for (const std::size_t capacity : {1u, 3u, 4u, 5u}) {
    RingBuffer<int> rb(capacity);
    std::deque<int> model;
    std::mt19937_64 rng(0x41b0 + capacity);
    std::array<int, 5> applied{};  // per-operation count, for coverage
    int next = 0;
    for (int step = 0; step < 20'000; ++step) {
      const std::size_t op = rng() % applied.size();
      switch (op) {
        case 0:  // push_back
          if (model.size() == capacity) continue;
          rb.push_back(next);
          model.push_back(next++);
          break;
        case 1:  // push_front
          if (model.size() == capacity) continue;
          rb.push_front(next);
          model.push_front(next++);
          break;
        case 2:  // pop_front
          if (model.empty()) continue;
          ASSERT_EQ(rb.pop_front(), model.front()) << "capacity " << capacity;
          model.pop_front();
          break;
        case 3: {  // remove_at
          if (model.empty()) continue;
          const std::size_t i = rng() % model.size();
          ASSERT_EQ(rb.remove_at(i), model[i]) << "capacity " << capacity;
          model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        case 4: {  // at, through a write so the slot mapping is exercised
          if (model.empty()) continue;
          const std::size_t i = rng() % model.size();
          ASSERT_EQ(rb.at(i), model[i]) << "capacity " << capacity;
          rb.at(i) = model[i] = next++;
          break;
        }
      }
      ++applied[op];
      ASSERT_EQ(rb.size(), model.size()) << "capacity " << capacity;
      ASSERT_EQ(rb.full(), model.size() == capacity);
      ASSERT_EQ(rb.empty(), model.empty());
      for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(rb.at(i), model[i])
            << "capacity " << capacity << ", step " << step << ", at " << i;
      }
      if (!model.empty()) {
        ASSERT_EQ(rb.front(), model.front());
      }
    }
    for (std::size_t op = 0; op < applied.size(); ++op) {
      EXPECT_GT(applied[op], 1000) << "capacity " << capacity << ", op " << op;
    }
  }
}

}  // namespace
}  // namespace syncpat::util
