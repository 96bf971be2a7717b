//! The two load shapes, over one submit → ticket → wait interface that the
//! fabric, the bare gateway and the self-tests' synthetic server implement.
//!
//! * closed loop: each client waits for its reply before sending the next
//!   request, so a slow system receives less load;
//! * open loop: one sender submits on a fixed schedule whatever happens,
//!   one collector waits on the tickets, and every latency is timed from
//!   the request's *intended* send time, so a stall also counts against
//!   the requests queued behind it (and shows as generator lag);
//! * saturation: one sender keeps a fixed number of requests in flight,
//!   so the front runs as fast as it can without refusing any.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use vtm_fabric::{Fabric, FabricError, FabricTicket};
use vtm_gateway::{Gateway, GatewayError, QuoteTicket, TelemetrySnapshot};
use vtm_serve::{PricingService, QuoteRequest};

use crate::common::wait_until;
use crate::report::{Outcomes, Report};
use crate::spans::{SpanLog, ROOT};
use crate::stats::{Histogram, Slices};

/// Why a request produced no quote.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Refused at admission (backpressure or load shedding).
    Rejected,
    /// Its deadline passed.
    Expired,
    /// Any other error.
    Failed(String),
}

impl From<GatewayError> for Failure {
    fn from(err: GatewayError) -> Self {
        match err {
            GatewayError::Overloaded { .. } | GatewayError::Shed { .. } => Failure::Rejected,
            GatewayError::DeadlineExceeded => Failure::Expired,
            other => Failure::Failed(other.to_string()),
        }
    }
}

impl Outcomes {
    /// Counts one attempted request's outcome.
    pub fn record<T>(&mut self, result: &Result<T, Failure>) {
        self.attempted += 1;
        match result {
            Ok(_) => self.completed += 1,
            Err(Failure::Rejected) => self.rejected += 1,
            Err(Failure::Expired) => self.expired += 1,
            Err(Failure::Failed(_)) => self.failed += 1,
        }
    }
}

/// A quoting front: submit returns a ticket, wait returns the price.
pub trait Front: Sync {
    /// The completion handle.
    type Ticket: Send;
    /// Span names of the two calls in the traced run.
    const SPANS: (&'static str, &'static str);
    /// Submits one request.
    fn submit(&self, request: QuoteRequest) -> Result<Self::Ticket, Failure>;
    /// Blocks for the request's price.
    fn wait(&self, ticket: Self::Ticket) -> Result<f64, Failure>;
}

impl Front for Fabric {
    type Ticket = FabricTicket;
    const SPANS: (&'static str, &'static str) = ("fabric.submit", "fabric.wait");

    fn submit(&self, request: QuoteRequest) -> Result<FabricTicket, Failure> {
        Fabric::submit(self, request).map_err(|err| match err {
            FabricError::Gateway(err) => err.into(),
            other => Failure::Failed(other.to_string()),
        })
    }

    fn wait(&self, ticket: FabricTicket) -> Result<f64, Failure> {
        ticket.wait().map(|q| q.price()).map_err(Failure::from)
    }
}

impl Front for Gateway {
    type Ticket = QuoteTicket;
    const SPANS: (&'static str, &'static str) = ("gateway.submit", "gateway.wait");

    fn submit(&self, request: QuoteRequest) -> Result<QuoteTicket, Failure> {
        Gateway::submit(self, request).map_err(Failure::from)
    }

    fn wait(&self, ticket: QuoteTicket) -> Result<f64, Failure> {
        ticket.wait().map(|q| q.price()).map_err(Failure::from)
    }
}

/// FNV-1a step folding one price into a running digest.
pub fn fold_price(digest: u64, price: f64) -> u64 {
    price.to_bits().to_le_bytes().iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The empty FNV-1a digest.
pub const PRICE_DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Splits `requests` between `clients`: client `c` owns the sessions with
/// `session % clients == c`, so every session's requests are sent by one
/// client, in stream order.
pub fn partition(requests: &[QuoteRequest], clients: usize) -> Vec<Vec<&QuoteRequest>> {
    (0..clients)
        .map(|c| {
            requests
                .iter()
                .filter(|r| r.session as usize % clients == c)
                .collect()
        })
        .collect()
}

/// Feeds `reference` each client's sequence through `quote_one` (skipping
/// requests that got no quote) and compares the price digests.
pub fn check_prices(
    report: &mut Report,
    label: &str,
    reference: &PricingService,
    sequences: &[Vec<&QuoteRequest>],
    logs: &[ClientLog],
) {
    let mut checked = 0usize;
    let mut differing = Vec::new();
    for (client, (log, sequence)) in logs.iter().zip(sequences).enumerate() {
        let mut unanswered = log.unanswered.iter().peekable();
        let mut digest = PRICE_DIGEST_SEED;
        for n in 0..log.sent {
            if unanswered.next_if_eq(&&n).is_some() {
                continue;
            }
            let quote = reference
                .quote_one(sequence[n % sequence.len()])
                .expect("reference quote");
            digest = fold_price(digest, quote.price());
            checked += 1;
        }
        if digest != log.price_digest {
            differing.push(client);
        }
    }
    report.check(
        format!("{label}.prices"),
        differing.is_empty() && checked > 0,
        format!("{checked} prices compared with quote_one; clients differing: {differing:?}"),
    );
}

/// Checks the benchmark's own outcome counts against the telemetry of the
/// gateways that served them (one, or every gateway of a fabric), after
/// draining: every admission resolved, nothing queued, and the client saw
/// what the gateways counted.
pub fn check_accounting(
    report: &mut Report,
    label: &str,
    client: &Outcomes,
    gateways: &[&TelemetrySnapshot],
) {
    let sum = |f: fn(&TelemetrySnapshot) -> u64| -> u64 { gateways.iter().map(|t| f(t)).sum() };
    let submitted = sum(|t| t.submitted);
    let completed = sum(|t| t.completed);
    let refused = sum(|t| t.rejected + t.shed);
    let expired = sum(|t| t.expired);
    let failed = sum(|t| t.failed);
    let depth = sum(|t| t.queue_depth);
    let ok = submitted == completed + failed + expired
        && depth == 0
        && client.attempted == submitted + refused
        && client.completed == completed
        && client.rejected == refused
        && client.expired + client.failed == expired + failed;
    report.check(
        format!("{label}.accounting"),
        ok,
        format!(
            "client {client:?}; gateways submitted={submitted} completed={completed} \
             refused={refused} expired={expired} failed={failed} queue_depth={depth}"
        ),
    );
}

/// What one closed-loop client saw.
#[derive(Debug)]
pub struct ClientLog {
    /// Client-observed latency (µs) by time slice of the measured window.
    pub latencies: Slices,
    /// Requests sent, warm-up included: positions `0..sent` of the client's
    /// sequence, cyclically.
    pub sent: usize,
    /// Positions (in `0..sent`) that produced no quote.
    pub unanswered: Vec<usize>,
    /// Digest of every price received, in order ([`fold_price`]).
    pub price_digest: u64,
    /// Completions per label of the request's session.
    pub per_label: Vec<u64>,
    /// Every request's outcome, warm-up included.
    pub outcomes: Outcomes,
    /// The client's spans (traced run only).
    pub spans: SpanLog,
}

/// Closed loop: client `c` cycles through `sequences[c]`, submitting each
/// request only after the previous reply. Nothing is measured during
/// `warmup`; the `measure` window after it is split into `slices`.
/// Completions are also counted per `label(session)` (of `labels` kinds).
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<F: Front>(
    front: &F,
    sequences: &[Vec<&QuoteRequest>],
    warmup: Duration,
    measure: Duration,
    slices: usize,
    labels: usize,
    label: &(dyn Fn(u64) -> usize + Sync),
    traced: Option<Instant>,
) -> Vec<ClientLog> {
    let start = Instant::now();
    let measure_start = start + warmup;
    let end = measure_start + measure;
    let slice_len = measure.as_secs_f64() / slices as f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .enumerate()
            .map(|(client, sequence)| {
                scope.spawn(move || {
                    let mut log = ClientLog {
                        latencies: Slices::new(slices),
                        sent: 0,
                        unanswered: Vec::new(),
                        price_digest: PRICE_DIGEST_SEED,
                        per_label: vec![0; labels],
                        outcomes: Outcomes::default(),
                        spans: SpanLog::new(traced.unwrap_or(start)),
                    };
                    let (submit_span, wait_span) = F::SPANS;
                    while Instant::now() < end {
                        let n = log.sent;
                        let request = sequence[n % sequence.len()].clone();
                        let session = request.session;
                        let id = ((client as u64) << 40) | (n as u64 + 1);
                        let sent = Instant::now();
                        let result = match traced {
                            None => front.submit(request).and_then(|t| front.wait(t)),
                            Some(_) => {
                                let spans = &mut log.spans;
                                let root = spans.begin("request", ROOT, id);
                                let result = spans
                                    .time(submit_span, root, id, || front.submit(request))
                                    .and_then(|t| {
                                        spans.time(wait_span, root, id, || front.wait(t))
                                    });
                                spans.end(root);
                                result
                            }
                        };
                        let done = Instant::now();
                        log.sent += 1;
                        log.outcomes.record(&result);
                        match result {
                            Ok(price) => {
                                log.price_digest = fold_price(log.price_digest, price);
                                log.per_label[label(session)] += 1;
                                if sent >= measure_start && done <= end {
                                    let slice =
                                        ((sent - measure_start).as_secs_f64() / slice_len) as usize;
                                    log.latencies
                                        .record(slice, (done - sent).as_secs_f64() * 1e6);
                                }
                            }
                            Err(_) => log.unanswered.push(n),
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    })
}

/// What one open-loop rate saw.
#[derive(Debug)]
pub struct RungLog {
    /// The offered rate (requests/s).
    pub rate: f64,
    /// From the schedule's start to the last request's resolution.
    pub elapsed: Duration,
    /// Latency (µs) from each completed request's intended send time, by
    /// time slice of the schedule.
    pub latencies: Slices,
    /// How late (µs) the sender submitted each request.
    pub lag: Histogram,
    /// Outcomes of every request sent.
    pub outcomes: Outcomes,
    /// The sender stopped early: the rate ran past [`OVERRUN`] times its
    /// scheduled duration.
    pub overran: bool,
    /// Sender spans, then collector spans (traced run only).
    pub spans: (SpanLog, SpanLog),
}

impl RungLog {
    /// Completions per second.
    pub fn achieved_qps(&self) -> f64 {
        self.outcomes.completed as f64 / self.elapsed.as_secs_f64()
    }
}

/// How far past its scheduled duration an open-loop rate may run before
/// the sender stops it.
const OVERRUN: f64 = 2.0;

/// Open loop at a fixed `rate` for `duration`, drawing requests from
/// `requests` cyclically starting at `*next` (advanced past the ones
/// sent). At most `backlog` submitted requests wait for the collector;
/// beyond that the sender blocks and falls behind its schedule, which
/// counts against latency (timed from the intended send time), so the
/// front's own admission bound never has to refuse a request. A rate the
/// system cannot keep up with thus shows as latency; the sender stops it
/// once it has run [`OVERRUN`] times its scheduled duration. Returns once
/// every submitted request has resolved.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<F: Front>(
    front: &F,
    requests: &[QuoteRequest],
    next: &mut usize,
    rate: f64,
    duration: Duration,
    slices: usize,
    backlog: usize,
    traced: Option<Instant>,
) -> RungLog {
    let start = Instant::now() + Duration::from_millis(1);
    let epoch = traced.unwrap_or(start);
    let total = (duration.as_secs_f64() * rate).floor() as usize;
    let per_slice = total.div_ceil(slices).max(1);
    let first = *next;
    let (sender_log, collector) = std::thread::scope(|scope| {
        let (tx, rx) =
            mpsc::sync_channel::<(u64, Instant, Result<F::Ticket, Failure>)>(backlog.max(1));
        let collector = scope.spawn(move || {
            let mut latencies = Slices::new(slices);
            let mut outcomes = Outcomes::default();
            let mut spans = SpanLog::new(epoch);
            let (_, wait_span) = F::SPANS;
            for (id, intended, submitted) in rx {
                let result = submitted.and_then(|ticket| match traced {
                    None => front.wait(ticket),
                    Some(_) => spans.time(wait_span, ROOT, id, || front.wait(ticket)),
                });
                let done = Instant::now();
                if result.is_ok() {
                    let slice = (id as usize - 1) / per_slice;
                    latencies.record(
                        slice,
                        done.saturating_duration_since(intended).as_secs_f64() * 1e6,
                    );
                }
                outcomes.record(&result);
            }
            (latencies, outcomes, spans)
        });
        let mut lag = Histogram::default();
        let mut spans = SpanLog::new(epoch);
        let (submit_span, _) = F::SPANS;
        let mut sent = 0;
        let overrun = start + duration.mul_f64(OVERRUN);
        let mut overran = false;
        while sent < total && !overran {
            let request = requests[(first + sent) % requests.len()].clone();
            let id = sent as u64 + 1;
            let intended = start + Duration::from_secs_f64(sent as f64 / rate);
            wait_until(intended);
            lag.record_us(intended.elapsed().as_secs_f64() * 1e6);
            let submitted = match traced {
                None => front.submit(request),
                Some(_) => spans.time(submit_span, ROOT, id, || front.submit(request)),
            };
            sent += 1;
            tx.send((id, intended, submitted))
                .expect("collector is alive");
            overran = Instant::now() > overrun;
        }
        drop(tx);
        let collector = collector.join().expect("open-loop collector panicked");
        ((lag, spans, sent, overran, start.elapsed()), collector)
    });
    let (lag, sender_spans, sent, overran, elapsed) = sender_log;
    let (latencies, outcomes, collector_spans) = collector;
    *next += sent;
    RungLog {
        rate,
        elapsed,
        latencies,
        lag,
        outcomes,
        overran,
        spans: (sender_spans, collector_spans),
    }
}

/// Saturation for `duration` or `count` requests, whichever ends first:
/// one sender keeps `window` requests in flight (it blocks until the
/// collector has resolved one before it submits another), one collector
/// waits on the tickets. Draws requests like [`open_loop`]. Returns the
/// outcomes and the time from the first submission to the last resolution.
pub fn saturate<F: Front>(
    front: &F,
    requests: &[QuoteRequest],
    next: &mut usize,
    window: usize,
    duration: Duration,
    count: usize,
) -> (Outcomes, Duration) {
    let start = Instant::now();
    let end = start + duration;
    let first = *next;
    let (sent, outcomes) = std::thread::scope(|scope| {
        // The collector holds one ticket while it waits, the channel the rest.
        let (tx, rx) = mpsc::sync_channel::<Result<F::Ticket, Failure>>(window.max(2) - 1);
        let collector = scope.spawn(move || {
            let mut outcomes = Outcomes::default();
            for submitted in rx {
                outcomes.record(&submitted.and_then(|ticket| front.wait(ticket)));
            }
            outcomes
        });
        let mut sent = 0;
        while sent < count && Instant::now() < end {
            let request = requests[(first + sent) % requests.len()].clone();
            tx.send(front.submit(request)).expect("collector is alive");
            sent += 1;
        }
        drop(tx);
        (
            sent,
            collector.join().expect("saturation collector panicked"),
        )
    });
    *next += sent;
    (outcomes, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Answers instantly, except that submission number `stall_at` blocks
    /// the caller for `stall` (like a slow disk under the journal lock).
    struct StallOnce {
        stall_at: usize,
        stall: Duration,
        submitted: AtomicUsize,
    }

    impl Front for StallOnce {
        type Ticket = ();
        const SPANS: (&'static str, &'static str) = ("stub.submit", "stub.wait");

        fn submit(&self, _request: QuoteRequest) -> Result<(), Failure> {
            if self.submitted.fetch_add(1, Ordering::Relaxed) == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Ok(())
        }

        fn wait(&self, _ticket: ()) -> Result<f64, Failure> {
            Ok(1.0)
        }
    }

    #[test]
    fn a_stall_shows_in_later_latency_and_generator_lag() {
        let server = StallOnce {
            stall_at: 100,
            stall: Duration::from_millis(60),
            submitted: AtomicUsize::new(0),
        };
        let requests = vec![QuoteRequest::new(1, vec![0.0])];
        let mut next = 0;
        let rung = open_loop(
            &server,
            &requests,
            &mut next,
            2000.0,
            Duration::from_millis(400),
            4,
            1024,
            None,
        );
        assert_eq!(next, 800);
        assert_eq!(rung.outcomes.attempted, 800);
        assert_eq!(rung.outcomes.completed, 800);
        // The 60 ms stall delays the ~120 requests due during it: each is
        // timed from when it was due, not from when it was finally sent.
        // At least 60 of the 800 requests (7.5%) were held up by > 20 ms.
        let latencies = rung.latencies.all();
        assert!(latencies.percentile_us(0.925).unwrap() > 20_000.0);
        assert!(latencies.percentile_us(1.0).unwrap() >= 50_000.0);
        assert!(rung.lag.percentile_us(0.925).unwrap() > 20_000.0);
        assert!(!rung.overran);
    }

    /// Answers every wait after `delay`, counting the requests in flight.
    struct Slow {
        delay: Duration,
        in_flight: AtomicUsize,
        most_in_flight: AtomicUsize,
    }

    impl Slow {
        fn new(delay: Duration) -> Self {
            Self {
                delay,
                in_flight: AtomicUsize::new(0),
                most_in_flight: AtomicUsize::new(0),
            }
        }
    }

    impl Front for Slow {
        type Ticket = ();
        const SPANS: (&'static str, &'static str) = ("stub.submit", "stub.wait");

        fn submit(&self, _request: QuoteRequest) -> Result<(), Failure> {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.most_in_flight.fetch_max(now, Ordering::SeqCst);
            Ok(())
        }

        fn wait(&self, _ticket: ()) -> Result<f64, Failure> {
            std::thread::sleep(self.delay);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            Ok(1.0)
        }
    }

    #[test]
    fn an_overloaded_rate_backs_up_into_latency_and_stops() {
        // 1000 requests/s offered for 0.5 s to a server that answers 200/s.
        let server = Slow::new(Duration::from_millis(5));
        let requests = vec![QuoteRequest::new(1, vec![0.0])];
        let mut next = 0;
        let rung = open_loop(
            &server,
            &requests,
            &mut next,
            1000.0,
            Duration::from_millis(500),
            1,
            16,
            None,
        );
        // Stopped after twice the schedule: about 200 answered, plus the
        // backlog.
        assert!(rung.overran);
        assert!(next < 300, "{next}");
        assert!(rung.elapsed >= Duration::from_millis(1000));
        assert_eq!(rung.outcomes.attempted as usize, next);
        assert_eq!(rung.outcomes.completed, rung.outcomes.attempted);
        // The channel's 16, the one the collector waits on, the last one.
        assert!(server.most_in_flight.load(Ordering::SeqCst) <= 18);
        assert!(rung.achieved_qps() < 0.9 * rung.rate);
        // The requests held up behind the backlog are late by the time the
        // sender waited for room.
        assert!(rung.latencies.all().percentile_us(0.5).unwrap() > 100_000.0);
    }

    #[test]
    fn saturation_keeps_the_window_in_flight() {
        let server = Slow::new(Duration::from_micros(200));
        let requests = vec![QuoteRequest::new(1, vec![0.0])];
        let mut next = 0;
        let (outcomes, elapsed) = saturate(
            &server,
            &requests,
            &mut next,
            8,
            Duration::from_millis(100),
            usize::MAX,
        );
        assert!(outcomes.completed > 0);
        assert_eq!(outcomes.completed, outcomes.attempted);
        assert_eq!(outcomes.attempted as usize, next);
        assert!(elapsed >= Duration::from_millis(100));
        // The window, plus the one submitted while the sender waits for room.
        assert!(server.most_in_flight.load(Ordering::SeqCst) <= 9);
        let (counted, _) = saturate(
            &server,
            &requests,
            &mut next,
            8,
            Duration::from_secs(60),
            50,
        );
        assert_eq!(counted.completed, 50);
    }

    #[test]
    fn closed_loop_counts_every_reply() {
        let server = StallOnce {
            stall_at: usize::MAX,
            stall: Duration::ZERO,
            submitted: AtomicUsize::new(0),
        };
        let requests = [
            QuoteRequest::new(1, vec![0.0]),
            QuoteRequest::new(2, vec![0.0]),
        ];
        let sequences = vec![vec![&requests[0]], vec![&requests[1]]];
        let logs = closed_loop(
            &server,
            &sequences,
            Duration::from_millis(10),
            Duration::from_millis(50),
            5,
            2,
            &|session| session as usize - 1,
            None,
        );
        for (client, log) in logs.iter().enumerate() {
            assert!(log.outcomes.completed > 0);
            assert_eq!(log.outcomes.completed as usize, log.sent);
            assert!(log.unanswered.is_empty());
            assert_eq!(log.per_label[client], log.outcomes.completed);
            assert_eq!(log.per_label[1 - client], 0);
            assert!(log.latencies.all().count() <= log.outcomes.completed);
            let digest = (0..log.sent).fold(PRICE_DIGEST_SEED, |d, _| fold_price(d, 1.0));
            assert_eq!(log.price_digest, digest);
        }
    }
}
