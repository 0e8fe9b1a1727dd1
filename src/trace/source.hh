/**
 * @file
 * Abstract source of memory references.  Concrete sources are the
 * synthetic program models (src/trace/synthetic.hh) and trace files
 * (src/trace/file_format.hh); the Simulator multiprograms them,
 * round-robin per time slice.
 */

#ifndef RAMPAGE_TRACE_SOURCE_HH
#define RAMPAGE_TRACE_SOURCE_HH

#include <cstddef>
#include <string>

#include "trace/record.hh"

namespace rampage
{

/**
 * A stream of memory references.  Sources may be finite (trace files)
 * or endless (synthetic programs); finite sources return false from
 * next() at end-of-stream and may be rewound with reset().
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     * @param ref receives the reference on success.
     * @retval true a reference was produced.
     * @retval false the stream is exhausted.
     */
    virtual bool next(MemRef &ref) = 0;

    /**
     * Produce up to `n` references into `buf`, in exactly the order
     * repeated next() calls would (proven per trace family by
     * tests/test_dispatch_equivalence.cc).  The bulk form exists for
     * the simulator's hot loop: a `final` source fills a contiguous
     * buffer through one virtual call instead of one per reference.
     * @return references produced; < n only at end-of-stream.
     */
    virtual std::size_t
    fill(MemRef *buf, std::size_t n)
    {
        std::size_t got = 0;
        while (got < n && next(buf[got]))
            ++got;
        return got;
    }

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;

    /** Human-readable stream name (benchmark or file name). */
    virtual std::string name() const = 0;

    /** Address-space id carried by this source's references. */
    virtual Pid pid() const = 0;
};

} // namespace rampage

#endif // RAMPAGE_TRACE_SOURCE_HH
