#include "verify/channel_observer.hh"

#include "dram/channel.hh"
#include "oram/freecursive_backend.hh"
#include "oram/nonsecure_backend.hh"
#include "sdimm/independent_backend.hh"
#include "sdimm/link_bus.hh"
#include "sdimm/split_backend.hh"
#include "trace/memory_backend.hh"

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

void
ChannelObserver::attach(dram::DramChannel &channel)
{
    channel.setCasObserver(
        [this](const dram::DramRequest &req, Tick data_end) {
            record(req.write ? TraceEventKind::Write
                             : TraceEventKind::Read,
                   req.addr, data_end);
        });
}

void
ChannelObserver::attach(sdimm::LinkBus &bus)
{
    bus.setObserver([this](const sdimm::LinkBusEvent &e) {
        if (e.isTransfer)
            record(TraceEventKind::Transfer, e.bytes, e.at);
        else
            record(e.isProbe ? TraceEventKind::Probe
                             : TraceEventKind::ShortCmd,
                   0, e.at);
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

unsigned
attachToBackend(MemoryBackend &backend, ChannelObserver &observer)
{
    if (auto *ns = dynamic_cast<oram::NonSecureBackend *>(&backend)) {
        dram::DramSystem &sys = ns->dramSystem();
        for (unsigned c = 0; c < sys.channelCount(); ++c)
            observer.attach(sys.channel(c));
        return sys.channelCount();
    }
    if (auto *fc = dynamic_cast<oram::FreecursiveBackend *>(&backend)) {
        dram::DramSystem &sys = fc->dramSystem();
        for (unsigned c = 0; c < sys.channelCount(); ++c)
            observer.attach(sys.channel(c));
        return sys.channelCount();
    }
    if (auto *ib = dynamic_cast<sdimm::IndependentBackend *>(&backend)) {
        for (unsigned b = 0; b < ib->busCount(); ++b)
            observer.attach(ib->bus(b));
        return ib->busCount();
    }
    if (auto *sb = dynamic_cast<sdimm::SplitBackend *>(&backend)) {
        for (unsigned b = 0; b < sb->busCount(); ++b)
            observer.attach(sb->bus(b));
        return sb->busCount();
    }
    return 0;
}

} // namespace secdimm::verify
