#include "core/attribution.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <unordered_map>

#include "dex/type_signature.hpp"
#include "rt/framework.hpp"
#include "util/strings.hpp"

namespace libspector::core {

namespace {

// Footnote 2's filter list, expressed as hierarchical package prefixes.
// com.android.okhttp is the platform's bundled HTTP stack (the Listing 1
// frames eliminated as internal API calls); com.android.volley is NOT
// filtered — apps bundle it themselves and Fig. 3 lists it as a top
// origin-library.
constexpr std::array<std::string_view, 14> kBuiltinPrefixes = {
    "android",
    "com.android.okhttp",
    "com.android.org.conscrypt",
    "com.android.webview",
    "dalvik",
    "java",
    "javax",
    "junit",
    "org.apache.http",
    "org.json",
    "org.w3c.dom",
    "org.xml.sax",
    "org.xmlpull.v1",
    "sun",
};

/// How far before the report timestamp a connection's handshake packets
/// may lie (the post-hook fires after establishment).
constexpr util::SimTimeMs kConnectSlackMs = 2000;

}  // namespace

std::span<const std::string_view> builtinFramePrefixes() noexcept {
  return kBuiltinPrefixes;
}

std::string frameNameOf(std::string_view entry) {
  if (const auto sig = dex::parseSignatureView(entry)) {
    std::string out;
    out.reserve(sig->slashedClass.size() + 1 + sig->methodName.size());
    for (const char c : sig->slashedClass) out += c == '/' ? '.' : c;
    out += '.';
    out += sig->methodName;
    return out;
  }
  return std::string(entry);
}

std::string packageOfEntry(std::string_view entry) {
  if (const auto sig = dex::parseSignatureView(entry)) {
    const std::size_t lastSlash = sig->slashedClass.rfind('/');
    if (lastSlash == std::string_view::npos) return {};
    std::string out(sig->slashedClass.substr(0, lastSlash));
    for (char& c : out)
      if (c == '/') c = '.';
    return out;
  }
  return dex::packageOfFrameName(entry);
}

bool isBuiltinFrame(std::string_view frameOrSignature) {
  // Signatures are filtered directly against their slashed class part —
  // no dotted frame name is ever materialized on this path.
  if (const auto sig = dex::parseSignatureView(frameOrSignature)) {
    for (const auto prefix : kBuiltinPrefixes) {
      if (util::isHierarchicalPrefixOfSlashedFrame(prefix, sig->slashedClass,
                                                   sig->methodName))
        return true;
    }
    return false;
  }
  for (const auto prefix : kBuiltinPrefixes) {
    if (util::isHierarchicalPrefix(prefix, frameOrSignature)) return true;
  }
  return false;
}

bool isJunkPackageFrame(std::string_view entry) {
  const std::string package = packageOfEntry(entry);
  if (package.empty()) return false;
  std::size_t componentLength = 0;
  for (const char c : package) {
    if (c == '.') {
      if (componentLength > 2) return false;
      componentLength = 0;
    } else {
      ++componentLength;
    }
  }
  return componentLength <= 2;
}

bool isReflectionMarkerFrame(std::string_view entry) {
  return entry == rt::kReflectMethodInvokeFrame ||
         entry == rt::kReflectProxyInvokeFrame;
}

bool isTrampolineFrame(std::span<const std::string> stackSignatures,
                       std::size_t i) {
  if (isJunkPackageFrame(stackSignatures[i])) return true;
  // Innermost-first list: frame i called whatever sits at i - 1. A frame
  // whose direct callee is Method/Proxy.invoke is a dispatch trampoline —
  // it only exists to bounce the request into the reflection target, which
  // is the genuine logic and sits further *in* (past the marker).
  return i >= 1 && isReflectionMarkerFrame(stackSignatures[i - 1]);
}

std::optional<std::size_t> originFrameIndex(
    std::span<const std::string> stackSignatures, bool elideTrampolines) {
  // Innermost-first list: the chronologically first call is the outermost
  // frame, so scan from the back and return the first non-built-in frame.
  for (std::size_t i = stackSignatures.size(); i-- > 0;) {
    if (isBuiltinFrame(stackSignatures[i])) continue;
    if (elideTrampolines && isTrampolineFrame(stackSignatures, i)) continue;
    return i;
  }
  return std::nullopt;
}

TrafficAttributor::TrafficAttributor(const radar::LibraryCorpus& corpus,
                                     vtsim::DomainCategorizer& domains)
    : domains_(domains),
      program_(corpus, builtinFramePrefixes(), radar::antLibraries(),
               radar::commonLibraries()),
      pool_(std::make_unique<util::SymbolPool>()) {}

const TrafficAttributor::FrameInfo& TrafficAttributor::sharedFrameInfo(
    util::Symbol signature) const {
  {
    const std::shared_lock lock(frameMutex_);
    const auto it = frameCache_.find(signature.id());
    if (it != frameCache_.end()) return it->second;
  }
  // Compute outside the exclusive section (corpus prediction is the pricey
  // part); a losing racer's identical entry is simply discarded. One
  // compiled walk answers the builtin filter; a second answers the
  // ant/common lists and the corpus election for the origin package.
  const std::string_view frame = signature.view();
  std::string originLibrary = packageOfEntry(frame);
  if (originLibrary.empty()) originLibrary = frameNameOf(frame);
  const AttributionProgram::Lookup hit = program_.lookupPackage(originLibrary);
  FrameInfo info;
  info.builtin = program_.isBuiltinFrame(frame);
  info.originLibrary = pool_->intern(originLibrary);
  info.twoLevelLibrary = pool_->intern(util::prefixLevels(originLibrary, 2));
  info.libraryCategory = pool_->intern(program_.categoryOf(hit));
  info.signature = signature;
  info.ant = hit.ant;
  info.common = hit.common;
  info.junkPackage = AttributionProgram::isJunkPackageEntry(frame);
  info.reflectMarker = isReflectionMarkerFrame(frame);
  const std::unique_lock lock(frameMutex_);
  return frameCache_.try_emplace(signature.id(), info).first->second;
}

std::vector<FlowRecord> TrafficAttributor::attribute(
    const RunArtifacts& run) const {
  // 1. IP -> (time, domain) table from the DNS responses in the capture,
  //    so each flow maps to the domain resolved most recently before it.
  //    Domains are views into the capture's packets (which outlive this
  //    call) — no per-packet string copies.
  std::unordered_map<net::Ipv4Addr,
                     std::vector<std::pair<util::SimTimeMs, std::string_view>>>
      dnsByIp;
  // Only DNS responses carrying an address count: queries have none and
  // an NXDOMAIN answers 0.0.0.0.
  for (const net::PacketRecord& pkt : run.capture.packets()) {
    if (pkt.proto != net::Proto::Udp || !pkt.isDns() ||
        pkt.dnsAnswer == net::Ipv4Addr{})
      continue;
    dnsByIp[pkt.dnsAnswer].emplace_back(pkt.timestampMs,
                                        std::string_view(pkt.dnsQname));
  }
  for (auto& [ip, entries] : dnsByIp)
    std::sort(entries.begin(), entries.end());

  const auto domainFor = [&](net::Ipv4Addr ip,
                             util::SimTimeMs when) -> std::string_view {
    const auto it = dnsByIp.find(ip);
    if (it == dnsByIp.end()) return {};
    std::string_view best;
    for (const auto& [ts, domain] : it->second) {
      if (ts > when) break;
      best = domain;
    }
    // A resolution can postdate the report stamp by the handshake RTT.
    if (best.empty() && !it->second.empty()) best = it->second.front().second;
    return best;
  };

  // 1b. HTTP Host headers dissected from the capture are authoritative for
  //     their socket: on co-hosted addresses (CDNs) DNS correlation alone
  //     is ambiguous, exactly the confusion the paper attributes to CDNs.
  //     One flat index sort groups the exchanges by socket and orders each
  //     group chronologically — hostFor picks the first in-window exchange,
  //     and the DPI pass does not guarantee chronological emission (it
  //     emits per stream, and streams interleave), so without the ordering
  //     a late exchange could shadow the one that actually opened the
  //     window. The former per-pair map of vectors paid a node and vector
  //     allocation per socket.
  const auto& exchanges = run.capture.httpExchanges();
  std::vector<std::uint32_t> exchangeOrder(exchanges.size());
  for (std::uint32_t i = 0; i < exchangeOrder.size(); ++i) exchangeOrder[i] = i;
  std::sort(exchangeOrder.begin(), exchangeOrder.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const net::HttpExchange& ea = exchanges[a];
              const net::HttpExchange& eb = exchanges[b];
              if (!(ea.pair == eb.pair)) return ea.pair < eb.pair;
              if (ea.timestampMs != eb.timestampMs)
                return ea.timestampMs < eb.timestampMs;
              return ea.host < eb.host;
            });

  const auto hostFor = [&](const net::SocketPair& pair, util::SimTimeMs from,
                           util::SimTimeMs to) -> std::string_view {
    auto it = std::lower_bound(exchangeOrder.begin(), exchangeOrder.end(),
                               pair,
                               [&](std::uint32_t i, const net::SocketPair& p) {
                                 return exchanges[i].pair < p;
                               });
    for (; it != exchangeOrder.end() && exchanges[*it].pair == pair; ++it) {
      const net::HttpExchange& exchange = exchanges[*it];
      if (exchange.timestampMs > to) break;
      if (exchange.timestampMs >= from)
        return std::string_view(exchange.host);
    }
    return {};
  };

  // 1c. Index the capture once: every flow below queries its stream volume
  //     in O(log P) instead of rescanning all P packets (the old
  //     O(flows x packets) hot spot of the offline stage).
  const net::CaptureIndex captureIndex(run.capture);

  // 1d. Per-frame derivations live in the attributor-lifetime frameCache_
  //     keyed by interned signature id — the same SDK stacks recur in
  //     every app, so parsing and corpus prediction happen once per study;
  //     a per-call view-keyed memo in front of it collapses the repeats
  //     *within* a run to one hash probe with no pool traffic or cache lock.
  std::unordered_map<std::string_view, const FrameInfo*> frameMemo;
  const auto infoOf = [&](const std::string& frame) -> const FrameInfo& {
    const auto [it, inserted] = frameMemo.try_emplace(frame, nullptr);
    if (inserted) it->second = &sharedFrameInfo(pool_->intern(frame));
    return *it->second;
  };
  // originFrameIndex with trampoline elision, answered from the cache.
  const auto originIndexOf =
      [&](std::span<const std::string> stack) -> std::optional<std::size_t> {
    for (std::size_t i = stack.size(); i-- > 0;) {
      const FrameInfo& info = infoOf(stack[i]);
      if (info.builtin || info.junkPackage) continue;
      if (i >= 1 && infoOf(stack[i - 1]).reflectMarker) continue;
      return i;
    }
    return std::nullopt;
  };

  // 1e. Domain lookups repeat heavily within a run (one CDN or ad host
  //     serves many flows); memoize the interned domain and its category
  //     per distinct name so the categorizer's global lock is taken once
  //     per domain, not once per flow.
  struct DomainSyms {
    util::Symbol domain;
    util::Symbol category;
  };
  std::unordered_map<std::string_view, DomainSyms> domainMemo;

  // 2. Connection windows: reports sharing a socket pair (ephemeral port
  //    reuse) are disambiguated chronologically — each report owns the
  //    window from just before its connect until the next same-pair report.
  //    One flat index sort groups by pair and orders each group by time;
  //    the former std::map of vectors paid a node allocation per
  //    connection plus a sort per group.
  std::vector<std::uint32_t> reportOrder(run.reports.size());
  for (std::uint32_t i = 0; i < reportOrder.size(); ++i) reportOrder[i] = i;
  std::sort(reportOrder.begin(), reportOrder.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const UdpReport& ra = run.reports[a];
              const UdpReport& rb = run.reports[b];
              if (ra.socketPair != rb.socketPair)
                return ra.socketPair < rb.socketPair;
              return ra.timestampMs < rb.timestampMs;
            });

  std::vector<FlowRecord> flows;
  flows.reserve(run.reports.size());

  // Per-run constants interned once, not once per flow.
  const util::Symbol apkSym = pool_->intern(run.apkSha256);
  const util::Symbol packageSym = pool_->intern(run.packageName);
  const util::Symbol appCategorySym = pool_->intern(run.appCategory);
  const util::Symbol unknownDomainCategorySym =
      pool_->intern(vtsim::kUnknownDomainCategory);
  const util::Symbol unknownLibraryCategorySym =
      pool_->intern(radar::kUnknownCategory);

  for (std::size_t groupFirst = 0; groupFirst < reportOrder.size();) {
    const net::SocketPair pair =
        run.reports[reportOrder[groupFirst]].socketPair;
    std::size_t groupLast = groupFirst + 1;
    while (groupLast < reportOrder.size() &&
           run.reports[reportOrder[groupLast]].socketPair == pair)
      ++groupLast;
    const std::span<const std::uint32_t> indices(
        reportOrder.data() + groupFirst, groupLast - groupFirst);
    groupFirst = groupLast;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const UdpReport& report = run.reports[indices[k]];
      // Keep-alive boundary reports (ordinal >= 1) are stamped strictly
      // after every packet of the preceding request on the same socket, so
      // the report timestamp itself is an exact window start — backward
      // slack would leak the previous request's packets into this flow.
      // Connect reports (ordinal 0, i.e. every legacy report) keep the
      // handshake slack.
      const util::SimTimeMs from =
          report.requestOrdinal > 0 ? report.timestampMs
          : report.timestampMs > kConnectSlackMs
              ? report.timestampMs - kConnectSlackMs
              : 0;
      const util::SimTimeMs to =
          k + 1 < indices.size()
              ? run.reports[indices[k + 1]].timestampMs - 1
              : std::numeric_limits<util::SimTimeMs>::max();

      const auto volume = captureIndex.streamVolume(pair, from, to);

      FlowRecord flow;
      flow.apkSha256 = apkSym;
      flow.appPackage = packageSym;
      flow.appCategory = appCategorySym;
      flow.socketPair = pair;
      flow.connectTimeMs = report.timestampMs;
      // Data transfer means payload: header-only segments (SYN/ACK/FIN)
      // carry no app data and would otherwise put an artificial ceiling on
      // the receive/send ratios of download-heavy flows.
      flow.sentBytes = volume.payloadFromSrc;
      flow.recvBytes = volume.payloadFromDst;
      flow.requestOrdinal = report.requestOrdinal;
      flow.rttMs = volume.rttMs();

      std::string_view domain = hostFor(pair, from, to);
      if (domain.empty()) domain = domainFor(pair.dst.ip, report.timestampMs);
      const auto [domainIt, firstSight] = domainMemo.try_emplace(domain);
      if (firstSight) {
        domainIt->second.domain = pool_->intern(domain);
        domainIt->second.category =
            domain.empty()
                ? unknownDomainCategorySym
                : pool_->intern(
                      domains_.categorize(std::string(domain)).category);
      }
      flow.domain = domainIt->second.domain;
      flow.domainCategory = domainIt->second.category;

      const auto origin = originIndexOf(report.stackSignatures);
      if (origin) {
        // The shared cache entry carries the interned signature: the
        // origin frame costs one memo probe total, not three interns.
        const FrameInfo& info = infoOf(report.stackSignatures[*origin]);
        flow.originSignature = info.signature;
        flow.originLibrary = info.originLibrary;
        flow.twoLevelLibrary = info.twoLevelLibrary;
        flow.libraryCategory = info.libraryCategory;
        flow.antOrigin = info.ant;
        flow.commonOrigin = info.common;
      } else {
        flow.builtinOrigin = true;
        std::string star = "*-";
        star.append(flow.domainCategory.view());
        flow.originLibrary = pool_->intern(star);
        flow.twoLevelLibrary = flow.originLibrary;
        flow.libraryCategory = unknownLibraryCategorySym;
      }

      flows.push_back(flow);
    }
  }

  // Keep report order stable for callers (the grouping reordered them).
  std::sort(flows.begin(), flows.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.connectTimeMs < b.connectTimeMs;
            });
  return flows;
}

FlowColumns TrafficAttributor::attributeColumns(const RunArtifacts& run) const {
  // Columnarizing the row output (rather than building columns in-line)
  // keeps a single attribution code path and makes row/column equivalence
  // true by construction; the columnar win is in the downstream fold, not
  // here. The transpose is a linear pass over trivially copyable fields.
  return FlowColumns::fromRows(attribute(run), *pool_);
}

void FlowColumns::reserve(std::size_t n) {
  apkSha256.reserve(n);
  appPackage.reserve(n);
  appCategory.reserve(n);
  originLibrary.reserve(n);
  originSignature.reserve(n);
  twoLevelLibrary.reserve(n);
  libraryCategory.reserve(n);
  domain.reserve(n);
  domainCategory.reserve(n);
  flags.reserve(n);
  sentBytes.reserve(n);
  recvBytes.reserve(n);
  socketPair.reserve(n);
  connectTimeMs.reserve(n);
  requestOrdinal.reserve(n);
  rttMs.reserve(n);
}

void FlowColumns::push(const FlowRecord& flow) {
  apkSha256.push_back(flow.apkSha256.id());
  appPackage.push_back(flow.appPackage.id());
  appCategory.push_back(flow.appCategory.id());
  originLibrary.push_back(flow.originLibrary.id());
  originSignature.push_back(flow.originSignature.id());
  twoLevelLibrary.push_back(flow.twoLevelLibrary.id());
  libraryCategory.push_back(flow.libraryCategory.id());
  domain.push_back(flow.domain.id());
  domainCategory.push_back(flow.domainCategory.id());
  flags.push_back(static_cast<std::uint8_t>(
      (flow.builtinOrigin ? kBuiltinOrigin : 0) |
      (flow.antOrigin ? kAntOrigin : 0) |
      (flow.commonOrigin ? kCommonOrigin : 0)));
  sentBytes.push_back(flow.sentBytes);
  recvBytes.push_back(flow.recvBytes);
  socketPair.push_back(flow.socketPair);
  connectTimeMs.push_back(flow.connectTimeMs);
  requestOrdinal.push_back(flow.requestOrdinal);
  rttMs.push_back(flow.rttMs);
}

FlowRecord FlowColumns::row(std::size_t i) const {
  const auto symbolAt = [&](std::uint32_t id) -> util::Symbol {
    return id == util::Symbol::kNoId ? util::Symbol{} : pool->at(id);
  };
  FlowRecord flow;
  flow.apkSha256 = symbolAt(apkSha256[i]);
  flow.appPackage = symbolAt(appPackage[i]);
  flow.appCategory = symbolAt(appCategory[i]);
  flow.originLibrary = symbolAt(originLibrary[i]);
  flow.originSignature = symbolAt(originSignature[i]);
  flow.twoLevelLibrary = symbolAt(twoLevelLibrary[i]);
  flow.libraryCategory = symbolAt(libraryCategory[i]);
  flow.domain = symbolAt(domain[i]);
  flow.domainCategory = symbolAt(domainCategory[i]);
  flow.builtinOrigin = (flags[i] & kBuiltinOrigin) != 0;
  flow.antOrigin = (flags[i] & kAntOrigin) != 0;
  flow.commonOrigin = (flags[i] & kCommonOrigin) != 0;
  flow.socketPair = socketPair[i];
  flow.connectTimeMs = connectTimeMs[i];
  flow.sentBytes = sentBytes[i];
  flow.recvBytes = recvBytes[i];
  flow.requestOrdinal = requestOrdinal[i];
  flow.rttMs = rttMs[i];
  return flow;
}

FlowColumns FlowColumns::fromRows(std::span<const FlowRecord> flows,
                                  const util::SymbolPool& pool) {
  FlowColumns columns;
  columns.pool = &pool;
  columns.reserve(flows.size());
  for (const FlowRecord& flow : flows) columns.push(flow);
  return columns;
}

std::uint64_t unattributedTcpPayload(const RunArtifacts& run,
                                     const FlowColumns& flows) {
  // The capture maintains its total incrementally on append; re-deriving it
  // here would be a full packet scan per run.
  const std::uint64_t totalTcpPayload = run.capture.totalTcpPayloadBytes();
  std::uint64_t attributed = 0;
  for (std::size_t i = 0; i < flows.size(); ++i)
    attributed += flows.sentBytes[i] + flows.recvBytes[i];
  return attributed >= totalTcpPayload ? 0 : totalTcpPayload - attributed;
}

}  // namespace libspector::core
