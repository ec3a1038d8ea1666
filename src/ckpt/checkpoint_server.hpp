// Transactional checkpoint server (paper §IV-B.2): stores remote checkpoint
// images; store/retrieve/delete are transactions — a failure before
// completion leaves the previous image intact (the client simply never
// receives the ack, and the commit happens atomically at disk-write
// completion). One disk serializes all writes, which is what makes
// coordinated checkpoint waves (and coordinated restarts) pay a storm
// penalty that uncoordinated message-logging checkpoints avoid.
#pragma once

#include <cstdint>
#include <map>

#include "ftapi/services.hpp"
#include "net/service_port.hpp"
#include "util/buffer.hpp"

namespace mpiv::ckpt {

/// Fetch version that matches no stored image: a coordinated rollback before
/// the first committed wave restarts every rank from scratch. (Version 0
/// means "latest", which is what message-logging restarts want.)
inline constexpr std::uint64_t kNoImage = ~std::uint64_t{0};

class CheckpointServer {
 public:
  CheckpointServer(net::Network& net, const ftapi::NodeLayout& layout)
      : net_(net), port_(net, layout.ckpt_node()) {
    net.attach(layout.ckpt_node(),
               [this](net::Message&& m) { on_frame(std::move(m)); });
  }

  bool has_image(int rank) const { return images_.count(rank) != 0; }
  /// Latest committed version for `rank` (0 if none).
  std::uint64_t latest_version(int rank) const {
    auto it = images_.find(rank);
    return it == images_.end() || it->second.empty() ? 0
                                                     : it->second.rbegin()->first;
  }
  std::uint64_t stores_completed() const { return stores_; }

 private:
  struct Image {
    util::Buffer body;
    std::uint64_t logical_bytes = 0;
  };

  sim::Time disk_time(std::uint64_t bytes) const {
    return static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 * 1e9 /
                                  net_.cost().ckpt_disk_bps);
  }

  void on_frame(net::Message&& m) {
    switch (m.kind) {
      case net::MsgKind::kCkptStore: {
        const int rank = m.src_rank;
        const std::uint64_t version = m.arg;
        const std::uint64_t total = m.body.size() + m.payload.bytes;
        Image img{std::move(m.body), m.payload.bytes};
        const net::NodeId reply_to = m.src;
        // Transaction: the image becomes visible only when the disk write
        // completes; the ack is sent after the commit.
        disk_free_ = std::max(port_.engine().now(), disk_free_) +
                     net_.cost().ckpt_txn_overhead + disk_time(total);
        port_.engine().at(disk_free_, [this, rank, version, reply_to,
                                       img = std::move(img)]() mutable {
          auto& versions = images_[rank];
          versions[version] = std::move(img);
          // Keep the last two versions (coordinated rollback may need the
          // previous globally-complete snapshot).
          while (versions.size() > 2) versions.erase(versions.begin());
          ++stores_;
          net::Message ack;
          ack.kind = net::MsgKind::kCkptStoreAck;
          ack.dst = reply_to;
          ack.arg = version;
          port_.send_after(0, std::move(ack));
        });
        return;
      }
      case net::MsgKind::kCkptFetchReq: {
        const int rank = static_cast<int>(m.arg);
        const std::uint64_t version = m.ssn;  // 0 = latest, kNoImage = none
        const net::NodeId reply_to = m.src;
        net::Message resp;
        resp.kind = net::MsgKind::kCkptFetchResp;
        resp.dst = reply_to;
        resp.arg = 0;
        std::uint64_t total = 0;
        auto it = images_.find(rank);
        if (it != images_.end() && !it->second.empty()) {
          auto vit = version == 0 ? std::prev(it->second.end())
                                  : it->second.find(version);
          if (vit != it->second.end()) {
            resp.arg = 1;
            resp.body = vit->second.body;
            resp.payload.bytes = vit->second.logical_bytes;
            total = resp.body.size() + resp.payload.bytes;
          }
        }
        disk_free_ = std::max(port_.engine().now(), disk_free_) + disk_time(total);
        const sim::Time ready = disk_free_;
        port_.engine().at(ready, [this, resp = std::move(resp)]() mutable {
          port_.send_after(0, std::move(resp));
        });
        return;
      }
      case net::MsgKind::kCkptDelete:
        images_.erase(static_cast<int>(m.arg));
        return;
      default:
        return;
    }
  }

  net::Network& net_;
  net::ServicePort port_;
  std::map<int, std::map<std::uint64_t, Image>> images_;
  sim::Time disk_free_ = 0;
  std::uint64_t stores_ = 0;
};

}  // namespace mpiv::ckpt
