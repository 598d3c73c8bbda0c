/**
 * @file
 * Small-buffer-optimized move-only callable for the event kernel.
 *
 * `std::function` heap-allocates for any capture larger than its
 * (implementation-defined, typically 16-byte) inline buffer and drags
 * in copy-constructibility requirements the kernel never uses.  Every
 * `schedule()` in the hot path would pay that allocation.  EventCallback
 * stores captures of up to 48 bytes inline — which covers every
 * callback the simulator schedules (`[this, r]`-style closures) — and
 * only falls back to the heap for oversized or throwing-move captures.
 */

#ifndef MEMSCALE_SIM_CALLBACK_HH
#define MEMSCALE_SIM_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace memscale
{

class EventCallback
{
  public:
    /** Captures up to this size (and max_align_t alignment) stay inline. */
    static constexpr std::size_t InlineCapacity = 48;

    EventCallback() noexcept = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    EventCallback(F &&f)   // NOLINT: implicit by design, mirrors std::function
    {
        emplace<D>(std::forward<F>(f));
    }

    EventCallback(EventCallback &&o) noexcept
    {
        if (o.ops_) {
            relocateFrom(o);
            o.ops_ = nullptr;
        }
    }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            if (o.ops_) {
                relocateFrom(o);
                o.ops_ = nullptr;
            }
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    void
    reset() noexcept
    {
        if (ops_) {
            if (!ops_->trivial)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /**
     * Replace the held callable with `f`, constructed directly in this
     * object's buffer: no temporary EventCallback and no relocation.
     * An EventCallback rvalue is move-assigned instead.
     */
    template <typename F>
    void
    assign(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_same_v<D, EventCallback>) {
            *this = std::forward<F>(f);
        } else {
            static_assert(std::is_invocable_r_v<void, D &>,
                          "EventCallback::assign needs a void() callable");
            reset();
            emplace<D>(std::forward<F>(f));
        }
    }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** True when the given callable would avoid the heap fallback. */
    template <typename F>
    static constexpr bool
    storedInline()
    {
        return fitsInline<std::decay_t<F>>();
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        /**
         * Inline capture with trivial copy and destruction: relocate
         * degenerates to a fixed-size memcpy and destroy to a no-op.
         * Nearly every callback the simulator schedules qualifies, so
         * the move/destroy paths branch on this flag instead of paying
         * an indirect call whose target varies with the capture type.
         */
        bool trivial;
    };

    /** Construct a D from f into the (empty) buffer. */
    template <typename D, typename F>
    void
    emplace(F &&f)
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &inlineOps<D>;
        } else {
            *reinterpret_cast<D **>(buf_) = new D(std::forward<F>(f));
            ops_ = &heapOps<D>;
        }
    }

    void
    relocateFrom(EventCallback &o) noexcept
    {
        if (o.ops_->trivial)
            std::memcpy(buf_, o.buf_, InlineCapacity);
        else
            o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
    }

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= InlineCapacity &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<D *>(p)))(); },
        [](void *dst, void *src) noexcept {
            D *s = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        },
        [](void *p) noexcept {
            std::launder(reinterpret_cast<D *>(p))->~D();
        },
        std::is_trivially_copyable_v<D> &&
            std::is_trivially_destructible_v<D>,
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *p) { (**reinterpret_cast<D **>(p))(); },
        [](void *dst, void *src) noexcept {
            *reinterpret_cast<D **>(dst) = *reinterpret_cast<D **>(src);
        },
        [](void *p) noexcept { delete *reinterpret_cast<D **>(p); },
        false,
    };

    alignas(std::max_align_t) unsigned char buf_[InlineCapacity];
    const Ops *ops_ = nullptr;
};

} // namespace memscale

#endif // MEMSCALE_SIM_CALLBACK_HH
