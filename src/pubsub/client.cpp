#include "pubsub/client.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "util/log.h"

namespace reef::pubsub {

Client::Client(sim::Simulator& sim, sim::Network& net, std::string name)
    : sim_(sim), net_(net), name_(std::move(name)),
      channel_(sim, net, ReliableChannel::Config{}) {
  id_ = net_.attach(*this, name_);
  channel_.bind(id_);
  channel_.set_deliver(
      [this](sim::NodeId from, const CtrlOp& op) { on_ctrl_op(from, op); });
  // A higher epoch from the broker means it restarted: our stream state
  // there is gone, so start over at seq 1. The broker's resync request
  // (the op that carried the new epoch) then triggers the full replay.
  channel_.set_on_peer_restart(
      [this](sim::NodeId peer) { channel_.reset_peer_send(peer); });
}

void Client::enable_reliable_control(ReliableChannel::Config config) {
  if (next_sub_ != 1) {
    throw std::logic_error(name_ +
                           ": enable_reliable_control after subscribe");
  }
  channel_.configure(config);
}

void Client::connect(Broker& broker) {
  broker_ = broker.id();
  broker.attach_client(id_);
}

SubscriptionId Client::subscribe(Filter filter, Handler handler) {
  // An empty Handler must stay empty after wrapping so deliveries keep
  // routing to the inbox.
  ScoredHandler scored;
  if (handler) {
    scored = [inner = std::move(handler)](const Event& event,
                                          SubscriptionId sub,
                                          double /*score*/) {
      inner(event, sub);
    };
  }
  return subscribe_scored(std::move(filter), ScoringSpec{}, std::move(scored));
}

SubscriptionId Client::subscribe_scored(Filter filter, ScoringSpec scoring,
                                        ScoredHandler handler) {
  assert(connected() && "subscribe before connect");
  const SubscriptionId sub_id =
      (static_cast<std::uint64_t>(id_) << 32) | next_sub_++;
  handlers_.emplace(sub_id, std::move(handler));
  // Only the reliable channel's resync replay reads this copy.
  if (channel_.enabled()) {
    subs_.emplace(sub_id, ClientSubscription{sub_id, filter, scoring});
  }
  CtrlOp op;
  op.kind = CtrlOp::Kind::kClientSubscribe;
  op.sub_id = sub_id;
  op.filter = std::move(filter);
  op.scoring = std::move(scoring);
  channel_.send(broker_, std::move(op));
  return sub_id;
}

std::vector<SubscriptionId> Client::subscribe_any(
    std::vector<Filter> filters, Handler handler) {
  // Share one dedup set across the branch subscriptions: events carry a
  // publisher-assigned id, so an event matching several branches is
  // delivered in one DeliverMsg listing each branch — the shared set makes
  // the user handler fire once.
  auto seen = std::make_shared<std::unordered_set<EventId>>();
  auto shared_handler = std::make_shared<Handler>(std::move(handler));
  std::vector<SubscriptionId> ids;
  ids.reserve(filters.size());
  for (auto& filter : filters) {
    ids.push_back(subscribe(
        std::move(filter),
        [seen, shared_handler](const Event& event, SubscriptionId sub) {
          if (!seen->insert(event.id()).second) return;
          if (*shared_handler) (*shared_handler)(event, sub);
        }));
  }
  return ids;
}

void Client::unsubscribe(SubscriptionId id) {
  if (handlers_.erase(id) == 0) return;
  subs_.erase(id);
  CtrlOp op;
  op.kind = CtrlOp::Kind::kClientUnsubscribe;
  op.sub_id = id;
  channel_.send(broker_, std::move(op));
}

void Client::publish(Event event) {
  std::vector<Event> events;
  events.push_back(std::move(event));
  publish_batch(std::move(events));
}

void Client::publish_batch(std::vector<Event> events) {
  assert(connected() && "publish before connect");
  if (events.empty()) return;
  for (Event& event : events) {
    event.set_id((static_cast<std::uint64_t>(id_) << 32) | next_event_id_++);
    ++published_;
  }
  const std::size_t bytes = publish_batch_wire_size(events);
  const std::size_t units = events.size();
  net_.send(id_, broker_, std::string(publish_type(units)),
            PublishBatchMsg{std::move(events)}, bytes, units);
}

void Client::on_ctrl_op(sim::NodeId from, const CtrlOp& op) {
  if (op.kind != CtrlOp::Kind::kResyncRequest) {
    util::log_warn("client") << name_ << ": unexpected control op";
    return;
  }
  // The broker restarted and asks what we subscribe to, sending its digest
  // of our registrations (RoutingTable::client_iface_digest folds the same
  // client_subscription_digest, so matching state is recognized without a
  // replay).
  std::uint64_t digest = 0;
  for (const auto& [sub_id, sub] : subs_) {
    digest ^= client_subscription_digest(sub_id, sub.filter, sub.scoring);
  }
  if (digest == op.digest) return;
  CtrlOp reply;
  reply.kind = CtrlOp::Kind::kClientResyncState;
  reply.subs.reserve(subs_.size());
  for (const auto& [sub_id, sub] : subs_) reply.subs.push_back(sub);
  std::sort(reply.subs.begin(), reply.subs.end(),
            [](const auto& a, const auto& b) { return a.sub_id < b.sub_id; });
  channel_.send(from, std::move(reply));
}

void Client::handle_message(const sim::Message& msg) {
  if (channel_.on_message(msg)) return;
  if (msg.type == kTypeDeliver || msg.type == kTypeDeliverBatch) {
    const auto& batch = std::any_cast<const DeliverBatchMsg&>(msg.payload);
    if (batch.items.size() > 1) ++batches_received_;
    for (const DeliverMsg& item : batch.items) on_deliver(item);
  } else {
    util::log_warn("client") << name_ << ": unexpected message " << msg.type;
  }
}

void Client::on_deliver(const DeliverMsg& deliver) {
  for (std::size_t i = 0; i < deliver.matched.size(); ++i) {
    const SubscriptionId sub_id = deliver.matched[i];
    const auto it = handlers_.find(sub_id);
    if (it == handlers_.end()) continue;  // already unsubscribed: drop
    ++deliveries_;
    const double score =
        i < deliver.scores.size() ? deliver.scores[i] : kConstantScore;
    if (it->second) {
      it->second(deliver.event, sub_id, score);
    } else {
      inbox_.emplace_back(deliver.event, sub_id);
    }
  }
}

}  // namespace reef::pubsub
