//! The agent's side of the wire: one request/reply exchange per TCP
//! connection, every I/O under a timeout, and the seeded [`NetChaos`]
//! adversary injected *below* the caller so chaos runs exercise exactly
//! the recovery machinery a flaky network would. A failed exchange is
//! not retried here: the supervision loop retries it on its next timed
//! pass, and gives up after `max_offline_ms` without a success.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::fleet::netchaos::{NetChaos, NetChaosConfig, NetFault};
use crate::proto::{read_message, write_message, Reply, Request};

/// A connect-per-exchange client for the coordinator at `addr`.
#[derive(Debug)]
pub struct FleetClient {
    addr: String,
    io_timeout: Duration,
    chaos: NetChaos,
    consecutive_failures: u32,
    saw_partition: bool,
    last_ok: Option<Instant>,
}

impl FleetClient {
    /// Client for `addr` with `io_timeout_ms` on connect/read/write,
    /// injecting faults per `chaos`.
    pub fn new(addr: impl Into<String>, io_timeout_ms: u64, chaos: NetChaosConfig) -> FleetClient {
        FleetClient {
            addr: addr.into(),
            io_timeout: Duration::from_millis(io_timeout_ms.max(1)),
            chaos: NetChaos::new(chaos),
            consecutive_failures: 0,
            saw_partition: false,
            last_ok: None,
        }
    }

    /// Milliseconds since the last successful exchange (`None` before
    /// the first success). The agent's give-up clock.
    pub fn ms_since_last_ok(&self) -> Option<u64> {
        self.last_ok.map(|t| t.elapsed().as_millis() as u64)
    }

    /// Chaos faults injected so far.
    pub fn faults_injected(&self) -> u32 {
        self.chaos.injected()
    }

    /// Consecutive failed exchanges (0 after any success).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let addr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::AddrNotAvailable, "unresolvable addr")
            })?;
        let stream = TcpStream::connect_timeout(&addr, self.io_timeout)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn exchange(&self, req: &Request) -> io::Result<Reply> {
        let mut stream = self.connect()?;
        write_message(&mut stream, req)?;
        read_message(&mut stream)
    }

    /// Send a deliberately torn frame (half the bytes, then close) so
    /// the coordinator's CRC check rejects it without a state change.
    fn send_truncated(&self, req: &Request) -> io::Result<()> {
        let mut bytes = Vec::new();
        write_message(&mut bytes, req)?;
        let mut stream = self.connect()?;
        stream.write_all(&bytes[..bytes.len() / 2])?;
        stream.flush()
    }

    fn settle(&mut self, result: io::Result<Reply>) -> io::Result<Reply> {
        match &result {
            Ok(_) => {
                if self.consecutive_failures > 0 {
                    obs::add("fleet.reconnects", 1);
                    if self.saw_partition {
                        obs::add("fleet.partitions_healed", 1);
                    }
                }
                self.consecutive_failures = 0;
                self.saw_partition = false;
                self.last_ok = Some(Instant::now());
            }
            Err(_) => {
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
            }
        }
        result
    }

    /// One exchange attempt, chaos included. Every failure mode —
    /// injected or genuine — comes back as an `io::Error` for the
    /// caller to retry; success resets the failure streak.
    pub fn call(&mut self, req: &Request) -> io::Result<Reply> {
        if self.chaos.partition_active() {
            self.saw_partition = true;
            let r = Err(io::Error::new(io::ErrorKind::ConnectionRefused, "chaos partition"));
            return self.settle(r);
        }
        match self.chaos.next_fault(req.kind()) {
            Some(NetFault::Drop) => {
                let r = Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos drop"));
                return self.settle(r);
            }
            Some(NetFault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(NetFault::Truncate) => {
                let _ = self.send_truncated(req);
                let r = Err(io::Error::new(io::ErrorKind::UnexpectedEof, "chaos truncate"));
                return self.settle(r);
            }
            Some(NetFault::Partition(ms)) => {
                self.chaos.begin_partition(ms);
                self.saw_partition = true;
                let r = Err(io::Error::new(io::ErrorKind::ConnectionRefused, "chaos partition"));
                return self.settle(r);
            }
            Some(NetFault::Duplicate) => {
                // Complete the exchange, then replay it verbatim and
                // discard the second reply: the coordinator must treat
                // the replay as a duplicate (idempotent re-ack or
                // fencing rejection), never as a second completion.
                let first = self.exchange(req);
                if first.is_ok() {
                    let _ = self.exchange(req);
                }
                return self.settle(first);
            }
            None => {}
        }
        let r = self.exchange(req);
        self.settle(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn serve_once(reply: Reply) -> (std::net::SocketAddr, std::thread::JoinHandle<Request>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req: Request = read_message(&mut stream).unwrap();
            write_message(&mut stream, &reply).unwrap();
            req
        });
        (addr, handle)
    }

    fn calm_client(addr: std::net::SocketAddr) -> FleetClient {
        FleetClient::new(addr.to_string(), 2_000, NetChaosConfig::default())
    }

    #[test]
    fn a_calm_exchange_roundtrips_and_resets_the_failure_streak() {
        let (addr, server) = serve_once(Reply::Wait { retry_ms: 42 });
        let mut client = calm_client(addr);
        // Seed a failure streak first so success visibly clears it.
        client.consecutive_failures = 3;
        let reply = client.call(&Request::Lease { agent: "t".into() }).unwrap();
        assert_eq!(reply, Reply::Wait { retry_ms: 42 });
        assert_eq!(client.consecutive_failures(), 0);
        assert!(client.ms_since_last_ok().is_some());
        let seen = server.join().unwrap();
        assert_eq!(seen, Request::Lease { agent: "t".into() });
    }

    #[test]
    fn refused_connections_build_the_failure_streak_the_give_up_reads() {
        // Bind-then-drop guarantees a dead port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut client = calm_client(addr);
        for _ in 0..3 {
            assert!(client.call(&Request::Lease { agent: "t".into() }).is_err());
        }
        assert_eq!(client.consecutive_failures(), 3);
        assert!(client.ms_since_last_ok().is_none(), "never succeeded");
    }

    #[test]
    fn a_truncated_frame_is_rejected_by_the_server_side_crc() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(2_000))).unwrap();
            read_message::<Request>(&mut stream).is_err()
        });
        let client = calm_client(addr);
        client.send_truncated(&Request::Lease { agent: "t".into() }).unwrap();
        assert!(server.join().unwrap(), "torn frame must not decode");
    }

    #[test]
    fn chaos_drop_fails_without_touching_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        // budget 1, and keep drawing until the schedule injects: with
        // seed 11 the first fault drawn for "lease" must be a failure
        // class (drop/truncate/partition) or delay; loop until the
        // budget is spent, then verify nothing connected.
        let mut client = FleetClient::new(
            addr.to_string(),
            50,
            NetChaosConfig { budget: 1, seed: 11, ..NetChaosConfig::default() },
        );
        let mut results = Vec::new();
        for _ in 0..60 {
            if client.faults_injected() >= 1 {
                break;
            }
            results.push(client.call(&Request::Lease { agent: "t".into() }));
        }
        assert_eq!(client.faults_injected(), 1, "budget must eventually fire");
        // Non-injected attempts hit a listener that never accepts: they
        // time out or queue in the backlog — either way no reply, so
        // every call failed.
        assert!(results.iter().all(|r| r.is_err()));
    }
}
