#include "verify/channel_observer.hh"

namespace secdimm::verify
{

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Read: return "READ";
      case TraceEventKind::Write: return "WRITE";
      case TraceEventKind::ShortCmd: return "SHORT_CMD";
      case TraceEventKind::Probe: return "PROBE";
      case TraceEventKind::Transfer: return "TRANSFER";
      case TraceEventKind::StoreRead: return "STORE_READ";
      case TraceEventKind::StoreWrite: return "STORE_WRITE";
    }
    return "UNKNOWN";
}

unsigned
ChannelObserver::attach(MemoryBackend &backend)
{
    return backend.attachObserver(
        [this](TraceEventKind kind, std::uint64_t addr, Tick at) {
            record(kind, addr, at);
        });
}

unsigned
ChannelObserver::attach(oram::OramEngine &engine)
{
    return engine.attachObserver(
        [this](TraceEventKind kind, std::uint64_t addr) {
            record(kind, addr, 0);
        });
}

} // namespace secdimm::verify
