/**
 * @file
 * Striped-lock memo cache for pure-function lookups.
 *
 * HardwareModel memoizes its hot cost-model queries (bestConfig /
 * validAllocations), which PlanService workers call concurrently
 * against one HardwareModel. StripedMemo shards the key space over a
 * fixed set of lock-protected stripes, keeping lookups thread-safe at
 * any thread count while staying *value-transparent*: the cached
 * value of a key is always exactly what the compute function returns
 * for it, so a hit is bit-identical to a miss. Concurrent misses on
 * one key may compute it twice — both computations of a pure function
 * yield the identical value, and each caller returns the value it
 * computed, so even the racing callers agree bit for bit.
 *
 * Eviction keeps the historical wholesale-drop policy per stripe: a
 * stripe that reaches its entry bound is cleared before inserting.
 * Dropping cache content is always value-transparent.
 *
 * Copy/move semantics: memo content is a droppable cache, but it is
 * only valid for the *state it was computed against*. Copies and
 * moves therefore start cold, and assignment clears the destination
 * (the owning object's inputs just changed).
 */

#ifndef SPINDLE_COMMON_SHARDED_MEMO_H
#define SPINDLE_COMMON_SHARDED_MEMO_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace spindle {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class StripedMemo
{
  public:
    /** @param max_entries bound on total entries across stripes
     *  before a stripe begins wholesale-dropping (historical memo
     *  limit semantics, applied per stripe). */
    explicit StripedMemo(std::size_t max_entries = 1 << 16)
        : stripe_limit_(std::max<std::size_t>(1, max_entries / kStripes))
    {
    }

    StripedMemo(const StripedMemo &other)
        : stripe_limit_(other.stripe_limit_)
    {
    }
    StripedMemo(StripedMemo &&other) noexcept
        : stripe_limit_(other.stripe_limit_)
    {
    }
    StripedMemo &
    operator=(const StripedMemo &other)
    {
        if (this != &other) {
            stripe_limit_ = other.stripe_limit_;
            clear();
        }
        return *this;
    }
    StripedMemo &
    operator=(StripedMemo &&other) noexcept
    {
        stripe_limit_ = other.stripe_limit_;
        clear();
        return *this;
    }

    /**
     * Return the memoized value of @p key, computing it via
     * @p compute on a miss. @p compute must be a pure function of
     * @p key (and of state that cannot change while lookups run);
     * it is invoked outside the stripe lock.
     */
    template <typename Fn>
    Value
    getOrCompute(const Key &key, Fn &&compute) const
    {
        Stripe &s = stripes_[Hash{}(key) % kStripes];
        {
            std::lock_guard<std::mutex> lk(s.mu);
            if (auto it = s.map.find(key); it != s.map.end())
                return it->second;
        }
        Value value = compute();
        {
            std::lock_guard<std::mutex> lk(s.mu);
            if (s.map.size() >= stripe_limit_)
                s.map.clear();
            s.map.emplace(key, value);
        }
        return value;
    }

    void
    clear() const
    {
        for (Stripe &s : stripes_) {
            std::lock_guard<std::mutex> lk(s.mu);
            s.map.clear();
        }
    }

  private:
    static constexpr std::size_t kStripes = 16;

    struct Stripe
    {
        std::mutex mu;
        std::unordered_map<Key, Value, Hash> map;
    };

    mutable std::array<Stripe, kStripes> stripes_;
    std::size_t stripe_limit_;
};

} // namespace spindle

#endif // SPINDLE_COMMON_SHARDED_MEMO_H
