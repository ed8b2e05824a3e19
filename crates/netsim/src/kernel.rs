//! The simulation kernel: in-flight flows and their typed events.
//!
//! Under the event core, one `fetch` is not a nested call chain but a
//! sequence of scheduled [`SimEvent`]s — resolve, fault draw, one hop
//! per middlebox, origin reply, response path — each dispatched from the
//! central [`EventQueue`] in `(time, seq)` order. The [`Kernel`] owns
//! that queue plus the dense table of in-flight [flow](FlowState)
//! states; `internet.rs` dispatches events against the world's topology
//! and writes results back here.
//!
//! Flow slots are dense and reused (a `FlowId` indexes a `Vec`), but
//! every flow also carries a monotone *tag* that is never reused, so the
//! optional event log stays unambiguous across a whole campaign. A
//! dispatch advances its flow in place: `Kernel::dispatch_slot` borrows
//! the slot apart from the queue, so the handler schedules the flow's
//! next event without moving its state out of the table and back. Event
//! log lines follow the workspace wire discipline:
//! [`EventRecord::to_line`] / [`EventRecord::parse_line`] round-trip
//! losslessly, and [`EventKind::to_token`] / [`EventKind::parse_token`]
//! are generated from one token list by `wire_enum!`.

use filterwatch_http::{Request, Response};
use filterwatch_telemetry::wire::{escape, field, split, unescape, Wire, WireError};

use crate::event::{EventId, EventQueue};
use crate::internet::NetworkId;
use crate::ip::IpAddr;
use crate::outcome::FetchOutcome;
use crate::time::SimTime;

/// Dense handle for an in-flight flow (an index into the kernel's flow
/// table). Slots are reused once a flow completes and its outcome has
/// been taken; the never-reused identity is [`FlowState::tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) usize);

impl FlowId {
    /// The underlying slot index.
    pub const fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// A typed event on the central queue. Every variant names the flow it
/// advances; `MbHop` additionally carries which middlebox in the
/// egress chain is next.
#[derive(Debug, Clone)]
pub(crate) enum SimEvent {
    /// Resolve the flow's hostname.
    Dns(FlowId),
    /// Consult the network's fault profile (outage windows first, then
    /// at most one draw from the shared fault RNG).
    Fault(FlowId),
    /// Present the request to middlebox `hop` of the egress chain.
    MbHop(FlowId, usize),
    /// Connect to the origin service.
    Origin(FlowId),
    /// Carry the origin's response back through the chain.
    Response(FlowId),
}

impl SimEvent {
    /// The flow this event advances.
    pub(crate) fn flow(&self) -> FlowId {
        match self {
            SimEvent::Dns(f)
            | SimEvent::Fault(f)
            | SimEvent::MbHop(f, _)
            | SimEvent::Origin(f)
            | SimEvent::Response(f) => *f,
        }
    }

    /// The event-log kind of this event.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub(crate) fn kind(&self) -> EventKind {
        match self {
            SimEvent::Dns(_) => EventKind::Dns,
            SimEvent::Fault(_) => EventKind::Fault,
            SimEvent::MbHop(_, _) => EventKind::MbHop,
            SimEvent::Origin(_) => EventKind::Origin,
            SimEvent::Response(_) => EventKind::Response,
        }
    }
}

/// The stage a logged event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// DNS resolution.
    Dns,
    /// Fault-profile consultation.
    Fault,
    /// One middlebox hop.
    MbHop,
    /// Origin service connect.
    Origin,
    /// Response path back through the chain.
    Response,
}

filterwatch_telemetry::wire_enum! {
    EventKind: "kind" {
        Dns => "dns",
        Fault => "fault",
        MbHop => "mb-hop",
        Origin => "origin",
        Response => "response",
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.to_token())
    }
}

/// One dispatched event, as recorded in the (optional) kernel event
/// log: when it fired, its queue sequence number, its kind, the
/// never-reused tag of the flow it advanced, and a free-text detail
/// (the URL, plus the hop index for middlebox hops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual time the event fired.
    pub at: SimTime,
    /// Queue sequence number (the deterministic tie-break).
    pub seq: u64,
    /// Which stage fired.
    pub kind: EventKind,
    /// Monotone tag of the flow advanced (never reused).
    pub flow: u64,
    /// Free-text detail.
    pub detail: String,
}

/// Tab-separated: time, seq, kind token, flow tag, detail.
impl Wire for EventRecord {
    fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.at,
            self.seq,
            self.kind.to_token(),
            self.flow,
            escape(&self.detail)
        )
    }

    fn parse_line(line: &str) -> Result<Self, WireError> {
        let [at, seq, kind, flow, detail] = split(line, '\t')?;
        Ok(EventRecord {
            at: field("at", at)?,
            seq: field("seq", seq)?,
            kind: EventKind::parse_token(kind)?,
            flow: field("flow", flow)?,
            detail: unescape("detail", detail)?,
        })
    }
}

/// State of one in-flight flow.
#[derive(Debug)]
pub(crate) struct FlowState {
    /// Never-reused flow identity for the event log.
    pub tag: u64,
    /// The network the client egresses through.
    pub net: NetworkId,
    /// The client address originating the flow.
    pub client_ip: IpAddr,
    /// The request being carried.
    pub req: Request,
    /// Resolved destination, once DNS has run.
    pub dest_ip: Option<IpAddr>,
    /// How many middleboxes the request has passed.
    pub passed: usize,
    /// The origin's response, parked between `Origin` and
    /// `Response`.
    pub pending_resp: Option<Response>,
    /// The final outcome, once the flow completes.
    pub outcome: Option<FetchOutcome>,
}

/// The discrete-event kernel: the central queue plus the dense table of
/// in-flight flows. Owned by [`Internet`](crate::Internet) behind a
/// mutex; all scheduling and dispatch happens while that lock is held,
/// so the queue discipline alone decides ordering.
#[derive(Debug, Default)]
pub(crate) struct Kernel {
    /// The central `(time, seq)`-ordered queue.
    pub queue: EventQueue<SimEvent>,
    /// In-flight flows, indexed by `FlowId`. `None` marks a free slot.
    flows: Vec<Option<FlowState>>,
    /// Free slot indices, reused LIFO.
    free: Vec<usize>,
    /// Monotone flow tag counter.
    next_tag: u64,
    /// Dispatched-event log (disabled by default).
    event_log: Vec<EventRecord>,
    event_log_enabled: bool,
}

impl Kernel {
    /// An empty kernel.
    pub(crate) fn new() -> Self {
        Kernel::default()
    }

    /// Open a flow and schedule its first event (`Dns`) at `at`.
    pub(crate) fn open_flow(
        &mut self,
        net: NetworkId,
        client_ip: IpAddr,
        req: Request,
        at: SimTime,
    ) -> FlowId {
        let tag = self.next_tag;
        self.next_tag += 1;
        let state = FlowState {
            tag,
            net,
            client_ip,
            req,
            dest_ip: None,
            passed: 0,
            pending_resp: None,
            outcome: None,
        };
        let id = match self.free.pop() {
            Some(slot) => {
                self.flows[slot] = Some(state);
                FlowId(slot)
            }
            None => {
                self.flows.push(Some(state));
                FlowId(self.flows.len() - 1)
            }
        };
        self.queue.schedule(at, SimEvent::Dns(id));
        id
    }

    /// Log `ev` (if the event log is enabled) and borrow the slot of the
    /// flow it advances, split from the queue, so the handler advances
    /// the flow in place and schedules its next event. `None` if the
    /// slot is free.
    pub(crate) fn dispatch_slot(
        &mut self,
        at: SimTime,
        id: EventId,
        ev: &SimEvent,
    ) -> Option<(&mut FlowState, &mut EventQueue<SimEvent>)> {
        let st = self.flows.get_mut(ev.flow().0)?.as_mut()?;
        if self.event_log_enabled {
            let detail = match ev {
                SimEvent::MbHop(_, hop) => format!("hop={hop} {}", st.req.url),
                _ => st.req.url.to_string(),
            };
            self.event_log.push(EventRecord {
                at,
                seq: id.value(),
                kind: ev.kind(),
                flow: st.tag,
                detail,
            });
        }
        Some((st, &mut self.queue))
    }

    /// Whether the flow has completed (its outcome is set).
    pub(crate) fn is_complete(&self, id: FlowId) -> bool {
        matches!(
            self.flows.get(id.0),
            Some(Some(FlowState {
                outcome: Some(_),
                ..
            }))
        )
    }

    /// Close a completed flow: free its slot and return its outcome.
    /// Returns `None` if the flow is unknown or still in flight (the
    /// slot is left untouched in that case).
    pub(crate) fn close_flow(&mut self, id: FlowId) -> Option<FetchOutcome> {
        if !self.is_complete(id) {
            return None;
        }
        let state = self.flows.get_mut(id.0).and_then(Option::take)?;
        self.free.push(id.0);
        state.outcome
    }

    /// Enable or disable the event log.
    pub(crate) fn set_event_log(&mut self, enabled: bool) {
        self.event_log_enabled = enabled;
    }

    /// Snapshot the event log.
    pub(crate) fn event_log(&self) -> Vec<EventRecord> {
        self.event_log.clone()
    }

    /// Clear the event log, returning how many records were dropped.
    pub(crate) fn clear_event_log(&mut self) -> usize {
        let n = self.event_log.len();
        self.event_log.clear();
        n
    }

    /// Number of flows currently in flight (open and not yet closed).
    pub(crate) fn in_flight(&self) -> usize {
        self.flows.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_tokens_round_trip() {
        for &kind in EventKind::ALL {
            assert_eq!(EventKind::parse_token(kind.to_token()).unwrap(), kind);
            assert_eq!(kind.to_string(), kind.to_token());
        }
        assert!(EventKind::parse_token("nope").is_err());
    }

    #[test]
    fn event_record_line_round_trips() {
        let rec = EventRecord {
            at: SimTime::from_days(2).plus_secs(5),
            seq: 41,
            kind: EventKind::MbHop,
            flow: 7,
            detail: "hop=1 http://x.info/a\tb".into(),
        };
        assert_eq!(EventRecord::parse_line(&rec.to_line()).unwrap(), rec);
    }

    #[test]
    fn event_record_parse_rejects_malformed() {
        assert!(EventRecord::parse_line("").is_err());
        assert!(EventRecord::parse_line("day 0 00:00:00\t1\tdns\t0").is_err());
        assert!(EventRecord::parse_line("day 0 00:00:00\tx\tdns\t0\td").is_err());
        assert!(EventRecord::parse_line("day 0 00:00:00\t1\tnope\t0\td").is_err());
        assert!(EventRecord::parse_line("day 0 00:00:00\t1\tdns\tx\td").is_err());
    }

    #[test]
    fn flow_slots_are_reused_but_tags_are_not() {
        use filterwatch_http::Url;
        let mut k = Kernel::new();
        let req = Request::get(Url::parse("http://x.info/").unwrap());
        let client: IpAddr = "5.0.0.9".parse().unwrap();
        let a = k.open_flow(NetworkId(0), client, req.clone(), SimTime::ZERO);
        let (at, id, ev) = k.queue.pop().unwrap();
        let (st, _) = k.dispatch_slot(at, id, &ev).unwrap();
        let tag_a = st.tag;
        st.outcome = Some(FetchOutcome::Timeout);
        assert!(k.is_complete(a));
        assert_eq!(k.close_flow(a), Some(FetchOutcome::Timeout));
        assert_eq!(k.close_flow(a), None, "slot already freed");
        assert!(
            k.dispatch_slot(at, id, &ev).is_none(),
            "stale event finds no flow"
        );

        let b = k.open_flow(NetworkId(0), client, req, SimTime::ZERO);
        assert_eq!(a, b, "slot reused");
        let (at, id, ev) = k.queue.pop().unwrap();
        let tag_b = k.dispatch_slot(at, id, &ev).unwrap().0.tag;
        assert_ne!(tag_a, tag_b, "tag not reused");
    }

    #[test]
    fn open_flow_schedules_dns_first() {
        use filterwatch_http::Url;
        let mut k = Kernel::new();
        let req = Request::get(Url::parse("http://x.info/").unwrap());
        let f = k.open_flow(
            NetworkId(3),
            "5.0.0.9".parse().unwrap(),
            req,
            SimTime::from_secs(9),
        );
        assert_eq!(k.in_flight(), 1);
        let (at, _, ev) = k.queue.pop().unwrap();
        assert_eq!(at, SimTime::from_secs(9));
        assert!(matches!(ev, SimEvent::Dns(id) if id == f));
        assert_eq!(ev.kind(), EventKind::Dns);
        assert!(!k.is_complete(f));
        assert_eq!(k.close_flow(f), None, "incomplete flow cannot close");
    }
}
