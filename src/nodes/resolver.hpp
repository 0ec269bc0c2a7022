#pragma once
// Iterative (recursive-resolving) DNS server: walks referrals from the
// root hints, caches positive/negative answers and delegation data,
// coalesces duplicate in-flight questions, retries and times out.
//
// Open vs. restricted operation is an ACL: restricted resolvers REFUSE
// sources outside their allow list — which is why transparent
// forwarders must relay to *open* resolvers to act as ODNS components.
//
// Every datagram is handled on its decoded view, and every reply is a
// view over the request, the cache or the task: only a full resolution
// allocates (its task, upstream bookkeeping and cached records).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "nodes/cache.hpp"
#include "nodes/dns_node.hpp"
#include "nodes/ratelimit.hpp"
#include "util/rng.hpp"

namespace odns::nodes {

struct ResolverConfig {
  bool open = true;
  std::vector<util::Prefix> allowed;   // consulted when !open
  std::vector<util::Ipv4> root_hints;
  /// Reply-to-client source address; anycast services answer from the
  /// shared service address rather than the PoP unicast address.
  std::optional<util::Ipv4> service_addr;
  util::Duration upstream_timeout = util::Duration::seconds(3);
  int max_retries = 2;
  int max_cname_depth = 8;
  int max_referrals = 16;
  std::uint32_t max_ttl = 86400;
  /// DNS 0x20 hardening: randomize the ASCII case of upstream query
  /// names and require responses to echo it exactly, raising the bar
  /// for off-path response forgery (dns-0x20 draft; deployed by large
  /// public resolvers).
  bool case_randomization = true;
  /// Response rate limiting toward clients (rate == 0 disables). Gates
  /// every client-facing response — reflective amplification through
  /// this resolver is clamped to rate + slipped TC replies per victim
  /// /24 per second.
  RrlConfig rrl;
};

struct ResolverStats {
  std::uint64_t client_queries = 0;
  std::uint64_t refused_acl = 0;
  std::uint64_t answered_from_cache = 0;
  std::uint64_t full_resolutions = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t upstream_timeouts = 0;
  std::uint64_t servfails = 0;
  std::uint64_t rejected_0x20 = 0;  // responses with mangled name case
  std::uint64_t rrl_passed = 0;
  std::uint64_t rrl_slipped = 0;   // limited, answered with a TC=1 stub
  std::uint64_t rrl_dropped = 0;
};

class RecursiveResolver : public DnsNode, public netsim::TimerTarget {
 public:
  RecursiveResolver(netsim::Simulator& sim, netsim::HostId host,
                    ResolverConfig cfg, std::uint64_t seed = 7);

  /// Binds port 53 (service) and the wildcard (upstream responses).
  void start();

  /// Upstream-query timeout: `generation` identifies the query, `key`
  /// is its pending_key(port, txid). A no-op when the response already
  /// consumed the pending entry or a newer query superseded it.
  void on_timer(std::uint64_t generation, std::uint64_t key) override;

  [[nodiscard]] const ResolverStats& stats() const { return stats_; }
  [[nodiscard]] const DnsCache& cache() const { return cache_; }
  DnsCache& cache_mutable() { return cache_; }
  [[nodiscard]] const ResolverConfig& config() const { return cfg_; }

  /// (Re)arms response rate limiting — the defense-sweep toggle. A
  /// fresh limiter (empty buckets) is installed; call between runs.
  void set_rrl(RrlConfig rrl);
  [[nodiscard]] const ResponseRateLimiter* rrl() const {
    return rrl_ ? &*rrl_ : nullptr;
  }

 protected:
  bool on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override;

 private:
  struct Client {
    util::Ipv4 addr;
    std::uint16_t port = 0;
    std::uint16_t txid = 0;
    util::Ipv4 arrival_dst;  // address the query arrived on
    bool recursion_desired = true;
  };

  struct Task {
    dnswire::Question original;
    dnswire::Name current_name;  // changes while chasing CNAMEs
    std::vector<dnswire::ResourceRecord> cname_chain;
    std::vector<Client> clients;
    std::vector<util::Ipv4> servers;
    std::size_t server_idx = 0;
    int retries_left = 0;
    int cname_depth = 0;
    int referrals = 0;
    std::uint64_t generation = 0;  // invalidates stale timeout events
    bool done = false;
  };
  using TaskPtr = std::shared_ptr<Task>;

  void handle_client_query(const netsim::Datagram& dgram,
                           const dnswire::MessageView& msg);
  void handle_upstream_response(const netsim::Datagram& dgram,
                                const dnswire::MessageView& msg);

  void begin_iteration(const TaskPtr& task);
  void query_current_server(const TaskPtr& task);
  void on_upstream_timeout(const TaskPtr& task, std::uint64_t generation);
  void advance_server(const TaskPtr& task);

  void finish_positive(const TaskPtr& task,
                       std::vector<dnswire::ResourceRecord> answers);
  void finish_negative(const TaskPtr& task, dnswire::Rcode rcode);
  void finish_servfail(const TaskPtr& task);
  void respond_all(const TaskPtr& task, dnswire::Rcode rcode,
                   const std::vector<dnswire::ResourceRecord>& answers);

  /// RRL gate in front of every client-facing send: pass emits `resp`
  /// unchanged, slip emits a minimal TC=1 echo of the question, drop
  /// emits nothing. With RRL disabled this is exactly send_view.
  /// `resp` must not live in the tx arena (build it in scratch_arena).
  void send_client_response(util::Ipv4 addr, std::uint16_t port,
                            const dnswire::MessageView& resp,
                            std::optional<util::Ipv4> src_override);

  /// Best cached name-server addresses for `name`: walks up the label
  /// tree looking for cached NS + glue; falls back to root hints.
  std::vector<util::Ipv4> best_servers_for(const dnswire::Name& name);

  static std::uint32_t pending_key(std::uint16_t port, std::uint16_t txid) {
    return (std::uint32_t{port} << 16) | txid;
  }

  struct PendingUpstream {
    TaskPtr task;
    dnswire::Name cased_name;  // exact case sent (0x20 validation)
  };

  ResolverConfig cfg_;
  DnsCache cache_;
  util::Rng rng_;
  std::uint64_t seed_;  // also seeds the RRL slip hash
  std::optional<ResponseRateLimiter> rrl_;
  ResolverStats stats_;
  /// In-flight resolutions by NameKey of their question: identical
  /// questions (same labels up to case, same type) coalesce.
  dnswire::NameKeyMap<TaskPtr> inflight_;
  std::unordered_map<std::uint32_t, PendingUpstream> pending_upstream_;
  std::uint16_t next_port_ = 49152;
  std::uint64_t next_generation_ = 1;
};

}  // namespace odns::nodes
