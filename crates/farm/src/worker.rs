//! Worker subprocess lifecycle: spawn, probe, interrupt, kill.
//!
//! A worker is just the existing CLI running the checkpointed campaign
//! path against one shard's checkpoint directory:
//!
//! ```text
//! <program> [prefix-args…] --resume <shard-dir> --out <shard-dir>/result.json
//! ```
//!
//! Every spawn is a resume — the supervisor materializes the shard
//! checkpoint when it takes the lease, so first assignment, crash
//! recovery, and hang recovery all run the same command line. On Unix
//! each worker is moved into its own process group so a terminal Ctrl-C
//! reaches only the supervisor (which then drains the fleet
//! deliberately), and so an interrupt or kill reaches the worker's
//! whole subtree at once.
//!
//! A worker's stdout is a pipe drained by a small watcher thread, which
//! signals the supervision loop's wake channel when the pipe reaches
//! EOF. Exit closes the pipe, so the loop learns of an exit at once
//! instead of at its next timed pass. The signal only wakes the loop:
//! the reap itself stays in [`WorkerHandle::try_wait`], so no one else
//! can reap the worker and free its pid for reuse.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::lease::ShardId;

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    pub const SIGINT: c_int = 2;
    pub const SIGKILL: c_int = 9;

    extern "C" {
        /// kill(2): a negative `pid` signals that whole process group.
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
    }
}

/// How to launch a worker: the binary plus the arguments that precede
/// the per-shard `--resume`/`--out` pair (e.g. `["campaign"]` for the
/// main CLI's subcommand).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Program to execute (usually the current `varity-gpu` binary).
    pub program: PathBuf,
    /// Arguments placed before the shard-specific ones.
    pub prefix_args: Vec<String>,
    /// Extra environment variables for each worker (e.g. a
    /// `RAYON_NUM_THREADS` budget so `n_workers` processes don't
    /// oversubscribe the machine).
    pub env: Vec<(String, String)>,
}

impl WorkerSpec {
    /// Spec with no prefix args and no extra environment.
    pub fn new(program: impl Into<PathBuf>) -> WorkerSpec {
        WorkerSpec { program: program.into(), prefix_args: Vec::new(), env: Vec::new() }
    }
}

/// A live (or recently dead) worker process bound to one shard lease.
#[derive(Debug)]
pub struct WorkerHandle {
    /// Supervisor-assigned worker id (monotonic across the run; also
    /// the id stamped into the shard's lease).
    pub id: u64,
    /// Shard this worker is running.
    pub shard: ShardId,
    /// Journal byte-length observed at spawn time, for whole-lease
    /// progress classification and chaos-candidate selection.
    pub journal_len_at_spawn: u64,
    /// Journal byte-length at the supervisor's most recent poll: the
    /// moving watermark behind progress heartbeats. Growth past *this*
    /// (not the spawn-time length) refreshes the lease, so a worker
    /// that advances and then wedges stops heartbeating and expires.
    pub journal_len_last_seen: u64,
    child: Child,
    /// When the watcher saw the worker's stdout reach EOF.
    stdout_closed: Arc<OnceLock<Instant>>,
    /// The thread draining stdout; joined on drop once the pipe closed.
    watcher: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Spawn a worker for `shard` against `shard_dir`, logging its
    /// stderr to `<shard_dir>/worker.log` (appended across respawns so
    /// the crash history of a poison shard survives for triage). Once
    /// its stdout reaches EOF, `exited` receives one `()`.
    pub fn spawn(
        spec: &WorkerSpec,
        id: u64,
        shard: ShardId,
        shard_dir: &Path,
        journal_len_at_spawn: u64,
        exited: Sender<()>,
    ) -> std::io::Result<WorkerHandle> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(shard_dir.join("worker.log"))?;
        let mut cmd = Command::new(&spec.program);
        cmd.args(&spec.prefix_args)
            .arg("--resume")
            .arg(shard_dir)
            .arg("--out")
            .arg(shard_dir.join("result.json"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        for (k, v) in &spec.env {
            cmd.env(k, v);
        }
        #[cfg(unix)]
        {
            use std::os::unix::process::CommandExt;
            // Own process group: terminal signals hit only the
            // supervisor, and group-wide kills can't orphan children.
            cmd.process_group(0);
        }
        let mut child = cmd.spawn()?;
        let mut stdout = child.stdout.take().expect("stdout was set to a pipe");
        let stdout_closed = Arc::new(OnceLock::new());
        let closed = Arc::clone(&stdout_closed);
        // Nothing a worker prints is needed, but an undrained pipe would
        // block a worker that prints more than the pipe holds.
        let watcher =
            std::thread::Builder::new().name(format!("worker-{id}-stdout")).spawn(move || {
                let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                let _ = closed.set(Instant::now());
                let _ = exited.send(());
            });
        let mut handle = WorkerHandle {
            id,
            shard,
            journal_len_at_spawn,
            journal_len_last_seen: journal_len_at_spawn,
            child,
            stdout_closed,
            watcher: None,
        };
        match watcher {
            Ok(t) => handle.watcher = Some(t),
            Err(e) => {
                handle.kill();
                return Err(e);
            }
        }
        Ok(handle)
    }

    /// When the worker's stdout reached EOF, if it has. Exit closes it
    /// a moment before the worker can be reaped.
    pub fn stdout_closed_at(&self) -> Option<Instant> {
        self.stdout_closed.get().copied()
    }

    /// OS pid of the worker.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Non-blocking reap: `Some(status)` once the worker has exited.
    pub fn try_wait(&mut self) -> std::io::Result<Option<std::process::ExitStatus>> {
        self.child.try_wait()
    }

    /// Hard-kill the worker and reap it.
    ///
    /// On Unix the SIGKILL goes to the worker's whole process group, so
    /// a grandchild spawned by the worker cannot outlive a hang/chaos
    /// kill and keep appending to the shard's journal concurrently with
    /// the respawned worker.
    pub fn kill(&mut self) {
        #[cfg(unix)]
        self.signal_group(sys::SIGKILL);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Politely interrupt the worker so it drains at a unit boundary:
    /// SIGINT to its process group on Unix, so no orphaned grandchild
    /// can outlive the drain holding a checkpoint lock. The stop files
    /// the supervisor writes drain workers too; the signal is an
    /// accelerant, not a requirement.
    pub fn interrupt(&mut self) {
        #[cfg(unix)]
        self.signal_group(sys::SIGINT);
    }

    /// Send `sig` to the worker's process group, which the worker leads
    /// (see `spawn`), while the worker is still unreaped.
    #[cfg(unix)]
    fn signal_group(&mut self, sig: std::os::raw::c_int) {
        let Ok(pgid) = i32::try_from(self.child.id()) else { return };
        if matches!(self.child.try_wait(), Ok(None)) {
            // SAFETY: kill(2) takes plain integers and touches no memory
            // of ours. The child is unreaped (only this handle reaps it),
            // so its pid, which is also its group id, cannot have been
            // reused by another process.
            unsafe {
                sys::kill(-pgid, sig);
            }
        }
    }
}

impl Drop for WorkerHandle {
    /// Join the watcher once the pipe has closed, which it does when the
    /// worker and every process sharing its stdout have exited. A pipe
    /// still open (a stray grandchild holds it) leaves the thread to end
    /// when that process does.
    fn drop(&mut self) {
        if self.stdout_closed.get().is_some() {
            if let Some(watcher) = self.watcher.take() {
                let _ = watcher.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn spawn_runs_resume_against_the_shard_dir() {
        // Use `true`-like /bin/sh so the test needs no cargo-built
        // binary; we only check plumbing: spawn succeeds, exit is
        // reaped, and the log file exists.
        let dir = std::env::temp_dir().join(format!("farm-worker-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = WorkerSpec::new("/bin/sh");
        spec.prefix_args = vec!["-c".into(), "exit 0".into(), "--".into()];
        let (tx, rx) = mpsc::channel();
        let mut w = WorkerHandle::spawn(&spec, 1, 0, &dir, 0, tx).expect("spawn");
        assert_eq!(w.shard, 0);
        let status = w.child.wait().expect("wait");
        assert!(status.success());
        assert!(dir.join("worker.log").exists(), "stderr log created");
        rx.recv_timeout(std::time::Duration::from_secs(10)).expect("exit signalled");
        assert!(w.stdout_closed_at().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn kill_takes_down_the_whole_process_group() {
        let dir = std::env::temp_dir().join(format!("farm-groupkill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The worker forks a grandchild and parks; after kill() the
        // grandchild must be gone too, or it could keep appending to
        // the shard journal alongside the respawned worker.
        let mut spec = WorkerSpec::new("/bin/sh");
        spec.prefix_args = vec![
            "-c".into(),
            "sleep 30 & echo $! > \"$2/grandchild.pid\"; sleep 30".into(),
            "--".into(),
        ];
        let mut w = WorkerHandle::spawn(&spec, 3, 0, &dir, 0, mpsc::channel().0).expect("spawn");
        let pid_file = dir.join("grandchild.pid");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !pid_file.exists() {
            assert!(std::time::Instant::now() < deadline, "grandchild never started");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let pid: i32 = std::fs::read_to_string(&pid_file).unwrap().trim().parse().unwrap();
        w.kill();
        // The orphaned grandchild lingers as a zombie until init reaps
        // it; poll rather than probe once.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            // SAFETY: signal 0 only probes whether `pid` exists.
            let gone = unsafe { sys::kill(pid, 0) } != 0;
            let zombie = std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .map(|s| s.contains(") Z "))
                .unwrap_or(true);
            if gone || zombie {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "grandchild {pid} survived the group kill"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_reaps_a_long_running_worker() {
        let dir = std::env::temp_dir().join(format!("farm-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = WorkerSpec::new("/bin/sh");
        spec.prefix_args = vec!["-c".into(), "sleep 30".into(), "--".into()];
        let mut w = WorkerHandle::spawn(&spec, 2, 0, &dir, 0, mpsc::channel().0).expect("spawn");
        assert!(w.try_wait().expect("try_wait").is_none(), "still running");
        w.kill();
        assert!(w.try_wait().expect("reaped").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
