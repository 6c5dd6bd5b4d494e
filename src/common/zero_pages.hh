/**
 * @file
 * Zero-page storage for arrays that start out zero and are touched
 * sparsely: the line state of a simulated cache level, of which a run
 * touches only the sets it addresses.
 *
 * ZeroPages owns a fixed list of zero-initialised arrays. Once their
 * total size reaches kMapBytes, all of them share one anonymous
 * private mapping: the kernel hands out a zeroed page on the first
 * touch, so a page no run touches costs neither resident memory nor
 * build time. Inside the mapping each array ends at a page boundary
 * and is followed by a PROT_NONE guard page (one more leads the
 * mapping), so an index overrun faults in every build:
 * AddressSanitizer does not poison mapped memory. Smaller sets of
 * arrays, and hosts other than Linux, keep each array in its own
 * zeroed heap block, which the sanitizers check as they check a
 * std::vector.
 *
 * A first touch costs a page fault, several times the price of
 * writing the page, so an owner that can put its arrays back to zero
 * cheaply (a cache clears only the sets it used) hands the mapping to
 * recycle(), and the next ZeroPages of the same array sizes, on any
 * thread, takes it over, its touched pages still resident and zero.
 * Code that builds and drops many machines of one geometry, from
 * short-lived worker threads too, then pays neither the faults nor
 * the map/unmap calls (and their cross-core TLB flushes) again.
 *
 * The process pool is bounded in bytes, not mappings. Each mapping
 * counts the bytes it can hold resident (its read-write pages). The
 * recycled ones may add up to the high-water mark of the live ones'
 * bytes less the live bytes now; the oldest go first. Mapped storage,
 * live and pooled, therefore never holds more than the live arrays
 * once needed at the same time, which is what the same arrays written
 * out on the heap would hold, and a pool refilled by the caches it
 * rebuilds keeps enough mappings to rebuild them all, at any thread
 * count.
 */

#ifndef WB_COMMON_ZERO_PAGES_HH
#define WB_COMMON_ZERO_PAGES_HH

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#define WB_ZERO_PAGES_MAPPED 1
#else
#define WB_ZERO_PAGES_MAPPED 0
#endif

namespace wb
{

/**
 * A view of one ZeroPages array. Copies share the elements; the owning
 * ZeroPages must outlive them.
 */
template <typename T>
class ZeroArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "zero bytes must be a valid T");

  public:
    ZeroArray() = default;

    T &operator[](std::size_t i) const { return data_[i]; }
    T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T *begin() const { return data_; }
    T *end() const { return data_ + size_; }

  private:
    friend class ZeroPages;

    ZeroArray(T *data, std::size_t size) : data_(data), size_(size) {}

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

/** Owner of a fixed list of zero-initialised arrays (see the file comment). */
class ZeroPages
{
  public:
    /**
     * Total array bytes from which the arrays share one mapping. Every
     * platform preset's L1 holds at most 8.5 KiB of cache state and
     * every L2 at least 60 KiB, so the L1s stay on the heap and the
     * L2s and LLC slices are mapped. docs/PERF.md measures that split
     * against mapping the L1s too (4 KiB) and against keeping the L2s
     * on the heap (128 KiB): both hold more memory in a tenant sweep,
     * at no resolved gain in time.
     */
    static constexpr std::size_t kMapBytes = 32 * 1024;

    ZeroPages() = default;

    /**
     * Storage for arrays of @p bytes[i] bytes each, all zero. A
     * zero-byte entry gets an empty array. Throws std::bad_alloc when
     * the host refuses the memory.
     */
    explicit ZeroPages(std::span<const std::size_t> bytes)
    {
        std::size_t total = 0;
        for (const std::size_t b : bytes)
            total += b;
#if WB_ZERO_PAGES_MAPPED
        if (total >= kMapBytes) {
            Pool &pool = processPool();
            std::vector<Mapping> evicted;
            if (!pool.take(bytes, mapping_, evicted)) {
                map(bytes);
                pool.opened(openBytes(mapping_.arrays), evicted);
            }
            unmapAll(evicted);
            return;
        }
#endif
        mapping_.arrays.reserve(bytes.size());
        for (const std::size_t b : bytes) {
            void *p = b == 0 ? nullptr : std::calloc(b, 1);
            if (b != 0 && p == nullptr) {
                release();
                throw std::bad_alloc();
            }
            mapping_.arrays.push_back({static_cast<std::byte *>(p), b});
        }
    }

    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    ZeroPages(ZeroPages &&other) noexcept
        : mapping_(std::exchange(other.mapping_, {}))
    {
    }

    ZeroPages &
    operator=(ZeroPages &&other) noexcept
    {
        if (this != &other) {
            release();
            mapping_ = std::exchange(other.mapping_, {});
        }
        return *this;
    }

    ~ZeroPages() { release(); }

    /** True when the arrays live in one mapping, not on the heap. */
    bool mapped() const { return mapping_.base != nullptr; }

    /** Array @p i as elements of @p T (its bytes over sizeof(T)). */
    template <typename T>
    ZeroArray<T>
    array(std::size_t i) const
    {
        const Array &a = mapping_.arrays[i];
        return {reinterpret_cast<T *>(a.data), a.bytes / sizeof(T)};
    }

    /**
     * Give the storage up, keeping a mapping in the process pool for
     * the next ZeroPages of the same array sizes while the pool's
     * budget allows (see the file comment). @pre every array reads
     * zero again. Leaves this object empty, like a move.
     */
    void
    recycle()
    {
#if WB_ZERO_PAGES_MAPPED
        if (mapped()) {
            std::vector<Mapping> evicted;
            processPool().put(std::exchange(mapping_, {}), evicted);
            unmapAll(evicted);
            return;
        }
#endif
        release();
    }

  private:
    struct Array
    {
        std::byte *data;
        std::size_t bytes;
    };

    /** The arrays, and the mapping that holds them, if any. */
    struct Mapping
    {
        std::vector<Array> arrays;
        void *base = nullptr;  //!< the shared mapping, or nullptr
        std::size_t bytes = 0; //!< its length, guards included
    };

#if WB_ZERO_PAGES_MAPPED
    /** The host page size. */
    static std::size_t
    pageBytes()
    {
        static const auto page =
            static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        return page;
    }

    /** @p b rounded up to whole pages. */
    static std::size_t
    pageSpan(std::size_t b)
    {
        const std::size_t page = pageBytes();
        return (b + page - 1) & ~(page - 1);
    }

    /** The read-write bytes of a mapping of @p arrays: the most it
     *  can hold resident. */
    static std::size_t
    openBytes(const std::vector<Array> &arrays)
    {
        std::size_t open = 0;
        for (const Array &a : arrays)
            open += pageSpan(a.bytes);
        return open;
    }

    static void
    unmapAll(const std::vector<Mapping> &maps)
    {
        for (const Mapping &m : maps)
            munmap(m.base, m.bytes);
    }

    /**
     * The process's mappings: the open bytes of the live ones, their
     * high-water mark, and the recycled ones, oldest first. The
     * budget: the recycled ones' open bytes stay within the high-water
     * mark less the live bytes. Callers unmap what a call evicts,
     * after it returns.
     */
    class Pool
    {
      public:
        /** Take over a recycled mapping of @p bytes, if any. */
        bool
        take(std::span<const std::size_t> bytes, Mapping &into,
             std::vector<Mapping> &evicted)
        {
            const std::lock_guard<std::mutex> guard(lock_);
            // Most recent first: its pages are likeliest still cached.
            const auto it = std::find_if(
                free_.rbegin(), free_.rend(), [bytes](const Mapping &m) {
                    return std::equal(bytes.begin(), bytes.end(),
                                      m.arrays.begin(), m.arrays.end(),
                                      [](std::size_t b, const Array &a) {
                                          return b == a.bytes;
                                      });
                });
            if (it == free_.rend())
                return false;
            into = std::move(*it);
            free_.erase(std::next(it).base());
            const std::size_t open = openBytes(into.arrays);
            pooled_ -= open;
            liveOpened(open, evicted);
            return true;
        }

        /** Count a fresh mapping of @p open read-write bytes live. */
        void
        opened(std::size_t open, std::vector<Mapping> &evicted)
        {
            const std::lock_guard<std::mutex> guard(lock_);
            liveOpened(open, evicted);
        }

        /** A live mapping is unmapped. */
        void
        closed(std::size_t open)
        {
            const std::lock_guard<std::mutex> guard(lock_);
            live_ -= open;
        }

        /** Keep @p m, no longer live, if the budget allows. */
        void
        put(Mapping &&m, std::vector<Mapping> &evicted)
        {
            const std::size_t open = openBytes(m.arrays);
            const std::lock_guard<std::mutex> guard(lock_);
            live_ -= open;
            pooled_ += open;
            free_.push_back(std::move(m));
            trim(evicted);
        }

      private:
        void
        liveOpened(std::size_t open, std::vector<Mapping> &evicted)
        {
            live_ += open;
            peak_ = std::max(peak_, live_);
            trim(evicted);
        }

        /** Evict the oldest recycled mappings down to the budget. */
        void
        trim(std::vector<Mapping> &evicted)
        {
            std::size_t n = 0;
            while (n < free_.size() && pooled_ > peak_ - live_) {
                pooled_ -= openBytes(free_[n].arrays);
                evicted.push_back(std::move(free_[n]));
                ++n;
            }
            free_.erase(free_.begin(),
                        free_.begin() + static_cast<std::ptrdiff_t>(n));
        }

        std::mutex lock_;
        std::vector<Mapping> free_;
        std::size_t pooled_ = 0; //!< open bytes of free_
        std::size_t live_ = 0;   //!< open bytes of live mappings
        std::size_t peak_ = 0;   //!< high-water mark of live_
    };

    /**
     * The pool, never destroyed: caches in static storage may recycle
     * during exit, and the kernel reclaims what it holds then.
     */
    static Pool &
    processPool()
    {
        static Pool *const pool = new Pool;
        return *pool;
    }

    /**
     * One PROT_NONE mapping with each array's pages opened read-write:
     * [guard][array 0 ... ][guard][array 1 ... ][guard]..., each array
     * pushed to the end of its pages so an overrun of one element
     * lands on the guard that follows it.
     */
    void
    map(std::span<const std::size_t> bytes)
    {
        const std::size_t page = pageBytes();
        std::size_t total = page;
        for (const std::size_t b : bytes)
            if (b != 0)
                total += pageSpan(b) + page;
        void *base = mmap(nullptr, total, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            throw std::bad_alloc();
        mapping_.arrays.reserve(bytes.size());
        std::size_t at = page;
        for (const std::size_t b : bytes) {
            if (b == 0) {
                mapping_.arrays.push_back({nullptr, 0});
                continue;
            }
            std::byte *open = static_cast<std::byte *>(base) + at;
            if (mprotect(open, pageSpan(b), PROT_READ | PROT_WRITE) != 0) {
                munmap(base, total);
                mapping_ = {};
                throw std::bad_alloc();
            }
            mapping_.arrays.push_back({open + pageSpan(b) - b, b});
            at += pageSpan(b) + page;
        }
        mapping_.base = base;
        mapping_.bytes = total;
    }
#endif

    void
    release()
    {
#if WB_ZERO_PAGES_MAPPED
        if (mapped()) {
            processPool().closed(openBytes(mapping_.arrays));
            munmap(mapping_.base, mapping_.bytes);
            mapping_ = {};
            return;
        }
#endif
        for (const Array &a : mapping_.arrays)
            std::free(a.data);
        mapping_ = {};
    }

    Mapping mapping_;
};

} // namespace wb

#endif // WB_COMMON_ZERO_PAGES_HH
