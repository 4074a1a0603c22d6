//! Property tests for the farm's lease queue under adversarial death
//! schedules.
//!
//! The farm's core promise: however workers die — crash mid-shard, hang
//! until the lease expires, or never get to run — every work unit lands
//! in the merged report **exactly once**. The simulation below drives a
//! [`WorkQueue`] with a proptest-chosen event schedule over virtual
//! time, modelling each shard's checkpoint journal the way the real
//! worker does (resume = continue after the journaled prefix; journals
//! survive deaths). The exactly-once property then falls out of two
//! invariants the test asserts directly:
//!
//! 1. the queue never leases one shard to two workers at once, and
//! 2. a resumed worker re-executes nothing the journal already holds.
//!
//! A final check ties the simulation to the real metadata protocol:
//! completed shards are regenerated with `CampaignMeta::generate_shard`
//! and folded in completion order through `merge_shards`, and every test
//! index must appear exactly once in the merged report.

use std::collections::BTreeMap;

use difftest::metadata::CampaignMeta;
use difftest::{CampaignConfig, TestMode};
use farm::coordjournal::Replayed;
use farm::proto::{Reply, Request};
use farm::{CoordEvent, CoordState, LeaseState, WorkQueue};
use progen::Precision;
use proptest::prelude::*;
use serde::RawJson;

/// One scheduler step per live worker, drawn from the proptest schedule.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Execute the shard's next unit (journaling it) or finish the shard.
    Progress,
    /// Die right now; the journal survives.
    Crash,
    /// Do nothing: no journal growth, no heartbeat. Enough of these in a
    /// row and the lease expires.
    Hang,
}

fn event(byte: u8) -> Event {
    match byte % 10 {
        0..=2 => Event::Crash,
        3..=4 => Event::Hang,
        _ => Event::Progress,
    }
}

/// The units shard `k` of `n` owns: indices ≡ k (mod n), in order.
fn shard_units(n_units: u64, shard: usize, n_shards: usize) -> Vec<u64> {
    (0..n_units).filter(|i| (*i as usize) % n_shards == shard).collect()
}

/// `events` as the coordinator journal's reader hands them on, each
/// `Done`'s result parsed.
fn read_back(events: &[CoordEvent]) -> Vec<Replayed> {
    events.iter().map(|ev| Replayed::parse(ev.clone()).expect("result parses")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_unit_lands_exactly_once_under_random_worker_death(
        n_shards in 1usize..6,
        n_workers in 1usize..5,
        n_units in 1u64..32,
        schedule in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        const HEARTBEAT_MS: u64 = 40;
        const STEP_MS: u64 = 10;

        let mut queue = WorkQueue::new(n_shards, HEARTBEAT_MS);
        // Simulated per-shard checkpoint journals: survive worker death,
        // define the resume point. A unit is "executed" when pushed.
        let mut journals: Vec<Vec<u64>> = vec![Vec::new(); n_shards];
        let mut exec_count: BTreeMap<u64, u64> = BTreeMap::new();
        // shard -> worker id currently simulated as running it.
        let mut active: BTreeMap<usize, u64> = BTreeMap::new();
        let mut completion_order: Vec<usize> = Vec::new();
        let mut now: u64 = 0;
        let mut worker_seq: u64 = 0;
        let mut cursor = 0usize; // schedule cursor; Progress once exhausted

        let mut steps = 0u32;
        while !queue.all_settled() {
            steps += 1;
            prop_assert!(
                steps < 100_000,
                "scheduler failed to settle: tally {:?}",
                queue.tally()
            );
            now += STEP_MS;

            // Fill free worker slots from the queue.
            while active.len() < n_workers {
                worker_seq += 1;
                let Some(shard) = queue.acquire(now, worker_seq) else { break };
                // Invariant 1: no double-lease.
                prop_assert!(
                    !active.contains_key(&shard),
                    "shard {shard} leased while already active"
                );
                active.insert(shard, worker_seq);
            }

            // Drive each live worker by one scheduled event.
            for shard in active.keys().copied().collect::<Vec<_>>() {
                let ev = schedule.get(cursor).copied().map(event).unwrap_or(Event::Progress);
                cursor += 1;
                match ev {
                    Event::Crash => {
                        active.remove(&shard);
                        queue.release(shard, now, 0);
                    }
                    Event::Hang => {} // silence; expiry below may reap it
                    Event::Progress => {
                        let units = shard_units(n_units, shard, n_shards);
                        // Invariant 2: resume continues after the
                        // journaled prefix — never before it.
                        let done = journals[shard].len();
                        if done < units.len() {
                            journals[shard].push(units[done]);
                            *exec_count.entry(units[done]).or_insert(0) += 1;
                            queue.heartbeat(shard, now);
                        } else {
                            active.remove(&shard);
                            queue.complete(shard);
                            completion_order.push(shard);
                        }
                    }
                }
            }

            // Hung leases expire and get reassigned; their journals stay.
            for shard in queue.expired(now) {
                prop_assert!(
                    active.contains_key(&shard),
                    "expired lease for shard {shard} with no active worker"
                );
                active.remove(&shard);
                queue.release(shard, now, 0);
            }
        }

        // Exactly-once at the unit level, however the deaths fell.
        prop_assert_eq!(exec_count.len() as u64, n_units, "all units executed");
        for (unit, count) in &exec_count {
            prop_assert_eq!(*count, 1, "unit {} executed {} times", unit, count);
        }
        // Each journal is exactly its shard's unit list, in order.
        for (shard, journal) in journals.iter().enumerate() {
            prop_assert_eq!(journal, &shard_units(n_units, shard, n_shards));
            prop_assert_eq!(queue.state(shard), LeaseState::Done);
        }
        prop_assert_eq!(completion_order.len(), n_shards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fleet coordinator's promise, as a property: drive
    /// [`CoordState`] with a proptest-chosen interleaving of grants,
    /// agent silences, **duplicated** completions, **delayed** zombie
    /// messages, and full **coordinator restarts** (journal replay with
    /// an epoch bump), and the final merged report still contains every
    /// test index exactly once — and a final replay of the journal
    /// reproduces it byte-identically.
    #[test]
    fn coordinator_is_exactly_once_under_duplication_delay_and_restarts(
        n_shards in 1usize..5,
        schedule in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        const HB: u64 = 40;
        let config =
            CampaignConfig::default_for(Precision::F32, TestMode::Direct).with_programs(8);
        let mut events: Vec<CoordEvent> = Vec::new();
        let mut state =
            CoordState::resume(config.clone(), n_shards, HB, false, Vec::new()).expect("fresh state");
        // Mirror run_coordinator: every (re)start journals its epoch, so
        // even a restart with no traffic in between still bumps it.
        events.push(CoordEvent::Start { epoch: state.epoch(), n_shards });
        let mut now: u64 = 0;
        // Live grants this simulated agent still intends to finish.
        let mut held: Vec<(usize, u64, u64)> = Vec::new();
        // Identities orphaned by silence or restart; their messages may
        // still arrive arbitrarily late (the partitioned-zombie case).
        let mut stale: Vec<(usize, u64, u64)> = Vec::new();
        // Completions the coordinator acked; the wire may replay them.
        let mut delivered: Vec<(usize, u64, u64)> = Vec::new();
        let mut cursor = 0usize;
        let mut steps = 0u32;

        while !state.all_settled() {
            steps += 1;
            prop_assert!(steps < 10_000, "failed to settle: tally {:?}", state.tally());
            now += 10;
            let action = match schedule.get(cursor).copied() {
                Some(b) => b % 8,
                // Schedule exhausted: deterministically finish — deliver
                // what is held, lease what is free, expire the ghosts.
                None => if held.is_empty() { 0 } else { 3 },
            };
            cursor += 1;
            match action {
                0 | 1 => {
                    // An agent asks for work.
                    let (reply, evs) =
                        state.handle(&Request::Lease { agent: "sim".into() }, now);
                    events.extend(evs);
                    match reply {
                        Reply::Grant { shard, epoch, fence, .. } => {
                            prop_assert!(
                                !held.iter().any(|h| h.0 == shard),
                                "shard {} granted while already held",
                                shard
                            );
                            held.push((shard, epoch, fence));
                        }
                        Reply::Wait { .. } => {
                            if held.is_empty() {
                                // Everything is leased to ghosts; let
                                // their keepalive silence expire them.
                                now += HB + 10;
                                events.extend(state.tick(now));
                            }
                        }
                        Reply::AllDone => {}
                        other => prop_assert!(false, "unexpected lease reply {}", other.kind()),
                    }
                }
                2 => {
                    // The agent goes silent mid-shard: no heartbeat, no
                    // release. The lease must expire on its own.
                    if let Some(h) = held.pop() {
                        stale.push(h);
                    }
                }
                3 | 4 => {
                    // Deliver a completion — and then the wire duplicates
                    // it immediately. The dup must re-ack, journal
                    // nothing, and fold nothing.
                    if let Some((shard, epoch, fence)) = held.pop() {
                        let piece = CampaignMeta::generate_shard(&config, shard, n_shards);
                        let req = Request::Complete {
                            agent: "sim".into(),
                            shard,
                            epoch,
                            fence,
                            meta: RawJson::encode(&piece),
                        };
                        let before = state.merged().map_or(0, |m| m.tests.len());
                        let (reply, evs) = state.handle(&req, now);
                        events.extend(evs);
                        prop_assert_eq!(reply, Reply::Ok);
                        let after = state.merged().map_or(0, |m| m.tests.len());
                        prop_assert!(after > before, "completion must fold new tests");
                        let (dup, dup_evs) = state.handle(&req, now);
                        prop_assert_eq!(dup, Reply::Ok, "duplicate completion re-acked");
                        prop_assert!(dup_evs.is_empty(), "duplicate journals nothing");
                        prop_assert_eq!(
                            state.merged().map_or(0, |m| m.tests.len()),
                            after,
                            "duplicate must not re-fold"
                        );
                        delivered.push((shard, epoch, fence));
                    }
                }
                5 => {
                    // A very late replay of an already-acked completion —
                    // possibly from before a restart. Idempotent re-ack,
                    // even though the epoch may have moved on.
                    if let Some(&(shard, epoch, fence)) = delivered.first() {
                        let piece = CampaignMeta::generate_shard(&config, shard, n_shards);
                        let before = state.merged().map_or(0, |m| m.tests.len());
                        let (reply, evs) = state.handle(
                            &Request::Complete {
                                agent: "sim".into(),
                                shard,
                                epoch,
                                fence,
                                meta: RawJson::encode(&piece),
                            },
                            now,
                        );
                        prop_assert!(evs.is_empty(), "replayed ack journals nothing");
                        prop_assert_eq!(reply, Reply::Ok, "acked completion re-acked across epochs");
                        prop_assert_eq!(state.merged().map_or(0, |m| m.tests.len()), before);
                    }
                }
                6 => {
                    // A partitioned zombie's late completion arrives. If
                    // its lease happens to still be live it may legally
                    // land; any other identity must be fenced. Either
                    // way the final exactly-once check has the last word.
                    if !stale.is_empty() {
                        let (shard, epoch, fence) = stale.remove(0);
                        let (reply, evs) = state.handle(
                            &Request::Poison {
                                agent: "zombie".into(),
                                shard,
                                epoch,
                                fence,
                                crashes: 3,
                            },
                            now,
                        );
                        // Poison from a zombie is the nastiest case: it
                        // would quarantine a shard someone else is
                        // running. It must only land while the zombie's
                        // own lease is still live.
                        match &reply {
                            Reply::Ok | Reply::Fenced { .. } => {}
                            other => {
                                prop_assert!(false, "unexpected zombie reply {}", other.kind())
                            }
                        }
                        if matches!(reply, Reply::Ok) {
                            // It really was still the lease holder; undo
                            // the quarantine path for this run by
                            // treating the shard as settled-poisoned.
                            prop_assert!(!evs.is_empty(), "accepted poison must journal");
                        }
                        events.extend(evs);
                        let _ = (shard, epoch, fence);
                    }
                }
                7 => {
                    // The coordinator dies and replays its journal: the
                    // merge must survive byte-identically, the epoch must
                    // move forward, and every live lease is orphaned.
                    let replayed =
                        CoordState::resume(config.clone(), n_shards, HB, false, read_back(&events))
                            .expect("replay");
                    prop_assert_eq!(
                        serde_json::to_string(&state.merged()).unwrap(),
                        serde_json::to_string(&replayed.merged()).unwrap(),
                        "replayed merge differs from the live one"
                    );
                    prop_assert!(replayed.epoch() > state.epoch(), "epoch must bump on restart");
                    state = replayed;
                    events.push(CoordEvent::Start { epoch: state.epoch(), n_shards });
                    stale.append(&mut held);
                }
                _ => unreachable!(),
            }

            // Agents keepalive everything they still hold (the real
            // agent heartbeats every heartbeat_ms/3); only ghosts in
            // `stale` fall silent and expire.
            for &(shard, epoch, fence) in &held {
                let (reply, evs) = state.handle(
                    &Request::Heartbeat { agent: "sim".into(), shard, epoch, fence },
                    now,
                );
                events.extend(evs);
                prop_assert_eq!(reply, Reply::Ok, "held lease keepalive must succeed");
            }
            events.extend(state.tick(now));
        }

        // Exactly-once, however the duplicates and restarts fell: every
        // non-poisoned shard's tests appear exactly once, in canonical
        // order, and poisoned shards (zombie case above) stay excluded.
        let poisoned = state.poisoned_shards();
        let merged = state.take_merged();
        let got: Vec<u64> =
            merged.iter().flat_map(|m| m.tests.iter().map(|t| t.index)).collect();
        let expect: Vec<u64> = (0..config.n_programs as u64)
            .filter(|i| !poisoned.contains(&((*i as usize) % n_shards)))
            .collect();
        prop_assert_eq!(got, expect, "every surviving unit exactly once, in order");

        // The journal's final word matches the live state's.
        let replayed = CoordState::resume(config.clone(), n_shards, HB, false, read_back(&events))
            .expect("final replay");
        prop_assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&replayed.merged()).unwrap(),
            "final journal replay must reproduce the merge byte-identically"
        );
    }
}

/// Ties the simulation to the real protocol: merging completed shards in
/// an arbitrary completion order yields a report where every test index
/// appears exactly once.
#[test]
fn merged_report_has_every_test_exactly_once_in_any_completion_order() {
    let config = CampaignConfig::default_for(Precision::F32, TestMode::Direct).with_programs(11);
    let n_shards = 4;
    // A completion order a chaotic farm might produce.
    for order in [[2, 0, 3, 1], [3, 2, 1, 0], [1, 3, 0, 2]] {
        let mut merged: Option<CampaignMeta> = None;
        for shard in order {
            let piece = CampaignMeta::generate_shard(&config, shard, n_shards);
            merged = Some(match merged.take() {
                None => piece,
                Some(acc) => {
                    CampaignMeta::merge_shards_partial(vec![acc, piece]).expect("protocol")
                }
            });
        }
        let merged = merged.unwrap();
        let indices: Vec<u64> = merged.tests.iter().map(|t| t.index).collect();
        let expect: Vec<u64> = (0..config.n_programs as u64).collect();
        assert_eq!(indices, expect, "order {order:?}: each index exactly once, sorted");
    }
}
