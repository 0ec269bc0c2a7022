#pragma once
// Shared fixtures: a hand-built miniature Internet with the DNS
// hierarchy (root / .net TLD / mirror-mode authoritative), one public
// resolver, and a SAV-free access network — small enough that tests
// can reason about exact hop counts and addresses.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "nodes/auth_server.hpp"
#include "nodes/forwarder.hpp"
#include "nodes/resolver.hpp"
#include "nodes/stub.hpp"
#include "netsim/sim.hpp"
#include "util/hash.hpp"

namespace odns::test {

using netsim::Asn;
using netsim::HostId;
using util::Ipv4;
using util::Prefix;

inline constexpr Asn kTier1Asn = 100;
inline constexpr Asn kInfraAsn = 200;
inline constexpr Asn kResolverAsn = 300;
inline constexpr Asn kAccessAsn = 400;   // SAV disabled
inline constexpr Asn kScannerAsn = 500;

inline constexpr Ipv4 kRootAddr{198, 41, 0, 4};
inline constexpr Ipv4 kTldAddr{192, 5, 6, 30};
inline constexpr Ipv4 kAuthAddr{198, 51, 100, 53};
inline constexpr Ipv4 kControlAddr{198, 51, 100, 200};
inline constexpr Ipv4 kResolverAddr{8, 8, 8, 8};
inline constexpr Ipv4 kScannerAddr{192, 0, 2, 1};

/// Golden-digest helpers. Equivalence suites render a run's
/// observable outputs as text and pin the FNV-1a digest of that text,
/// so a recorded value keeps guarding the run after the code path it
/// was once compared against is gone.
inline std::uint64_t text_digest(std::string_view text) {
  std::uint64_t h = util::kFnv1aBasis;
  for (const unsigned char c : text) {
    h ^= c;
    h *= util::kFnv1aPrime;
  }
  return h;
}

/// Records the first argument word of every timer it receives, in
/// firing order. `then`, when set, runs after each record, so a test
/// handler can schedule further events from inside the event loop.
struct WordTimer : netsim::TimerTarget {
  std::vector<std::uint64_t> words;
  std::function<void(std::uint64_t)> then;

  void on_timer(std::uint64_t a, std::uint64_t) override {
    words.push_back(a);
    if (then) then(a);
  }
};

/// Every SimCounters field, space-separated, in declaration order.
inline std::string render_counters(const netsim::SimCounters& c) {
  std::ostringstream out;
  out << c.sent << ' ' << c.delivered << ' ' << c.dropped_sav << ' '
      << c.dropped_loss << ' ' << c.dropped_no_route << ' ' << c.ttl_expired
      << ' ' << c.icmp_generated << ' ' << c.redirected << ' '
      << c.dropped_outage << ' ' << c.jittered << ' ' << c.reordered << ' '
      << c.duplicated << ' ' << c.corrupted << ' '
      << c.icmp_unreachable_suppressed;
  return out.str();
}

/// Heap-allocation audit hooks. The counters are inline and therefore
/// present (but dormant) in every test binary; the global operator
/// new/delete replacements that feed them are defined only in
/// tests/alloc_audit_test.cpp, so every other suite runs on the stock
/// allocator. AllocationScope reads the delta: zero inside a warmed
/// arena serving loop is the bar (docs/architecture.md,
/// "Zero-allocation wire path").
namespace allocaudit {

inline std::atomic<std::uint64_t> allocations{0};
inline std::atomic<std::uint64_t> deallocations{0};
/// Live heap bytes (allocated minus freed, usable sizes) — fed only by
/// binaries whose replacement operators track sizes
/// (tests/addr_plane_test.cpp); zero elsewhere.
inline std::atomic<std::int64_t> live_bytes{0};

class AllocationScope {
 public:
  AllocationScope()
      : start_allocs_(allocations.load(std::memory_order_relaxed)),
        start_frees_(deallocations.load(std::memory_order_relaxed)),
        start_bytes_(live_bytes.load(std::memory_order_relaxed)) {}

  [[nodiscard]] std::uint64_t allocations_in_scope() const {
    return allocations.load(std::memory_order_relaxed) - start_allocs_;
  }
  [[nodiscard]] std::uint64_t deallocations_in_scope() const {
    return deallocations.load(std::memory_order_relaxed) - start_frees_;
  }
  /// Net heap growth since scope start; negative if the scope freed
  /// more than it allocated.
  [[nodiscard]] std::int64_t live_bytes_in_scope() const {
    return live_bytes.load(std::memory_order_relaxed) - start_bytes_;
  }

 private:
  std::uint64_t start_allocs_;
  std::uint64_t start_frees_;
  std::int64_t start_bytes_;
};

}  // namespace allocaudit

/// A five-AS world: tier1 in the middle, infra (root/TLD/auth),
/// a public resolver, an access network without SAV, and the scanner.
struct MiniWorld {
  explicit MiniWorld(netsim::SimConfig cfg = {});

  dnswire::Name scan_name = *dnswire::Name::parse("scan.odns-study.net");

  netsim::Simulator sim;
  HostId root_host;
  HostId tld_host;
  HostId auth_host;
  HostId resolver_host;
  HostId scanner_host;

  std::unique_ptr<nodes::AuthServer> root;
  std::unique_ptr<nodes::AuthServer> tld;
  std::unique_ptr<nodes::AuthServer> auth;
  std::unique_ptr<nodes::RecursiveResolver> resolver;

  /// Adds a host with `addr` to the access network.
  HostId add_access_host(Ipv4 addr) {
    return sim.net().add_host(kAccessAsn, {addr});
  }
};

inline MiniWorld::MiniWorld(netsim::SimConfig cfg) : sim(cfg) {
  auto& net = sim.net();
  auto add_as = [&](Asn asn, bool sav, int hops) {
    netsim::AsConfig ac;
    ac.asn = asn;
    ac.country = "TST";
    ac.source_address_validation = sav;
    ac.internal_hops = hops;
    net.add_as(ac);
  };
  add_as(kTier1Asn, true, 2);
  add_as(kInfraAsn, true, 1);
  add_as(kResolverAsn, true, 1);
  add_as(kAccessAsn, /*sav=*/false, 1);
  add_as(kScannerAsn, false, 1);
  net.link(kTier1Asn, kInfraAsn);
  net.link(kTier1Asn, kResolverAsn);
  net.link(kTier1Asn, kAccessAsn);
  net.link(kTier1Asn, kScannerAsn);

  net.announce(kInfraAsn, Prefix{kRootAddr, 24});
  net.announce(kInfraAsn, Prefix{kTldAddr, 24});
  net.announce(kInfraAsn, Prefix{kAuthAddr, 24});
  net.announce(kResolverAsn, Prefix{Ipv4{8, 8, 8, 0}, 24});
  net.announce(kAccessAsn, Prefix{Ipv4{20, 0, 0, 0}, 16});
  net.announce(kScannerAsn, Prefix{kScannerAddr, 24});

  root_host = net.add_host(kInfraAsn, {kRootAddr});
  tld_host = net.add_host(kInfraAsn, {kTldAddr});
  auth_host = net.add_host(kInfraAsn, {kAuthAddr});
  resolver_host = net.add_host(kResolverAsn, {kResolverAddr});
  scanner_host = net.add_host(kScannerAsn, {kScannerAddr});

  const auto net_name = *dnswire::Name::parse("net");
  const auto zone_name = *dnswire::Name::parse("odns-study.net");

  root = std::make_unique<nodes::AuthServer>(sim, root_host);
  root->add_zone(dnswire::Name{})
      .delegate(net_name, *dnswire::Name::parse("a.gtld-servers.net"),
                kTldAddr);
  root->start();

  tld = std::make_unique<nodes::AuthServer>(sim, tld_host);
  tld->add_zone(net_name)
      .delegate(zone_name, *dnswire::Name::parse("ns1.odns-study.net"),
                kAuthAddr);
  tld->start();

  auth = std::make_unique<nodes::AuthServer>(sim, auth_host);
  auto& zone = auth->add_zone(zone_name);
  zone.add_a("ns1.odns-study.net", kAuthAddr);
  nodes::MirrorConfig mirror;
  mirror.name = scan_name;
  mirror.control_addr = kControlAddr;
  auth->set_mirror(mirror);
  auth->start();

  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {kRootAddr};
  resolver = std::make_unique<nodes::RecursiveResolver>(sim, resolver_host,
                                                        rc, 77);
  resolver->start();
}

}  // namespace odns::test
