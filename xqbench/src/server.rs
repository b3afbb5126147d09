//! The `xqview-server` child process: spawn on a catalog directory, wait
//! for its readiness line, read its memory and CPU counters from
//! `/proc`, stop it, and never leave it running.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

const READY_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// How to start the server: the binary, and the documents it loads.
pub struct Launch {
    pub exe: PathBuf,
    pub loads: Vec<(String, PathBuf)>,
    /// The server's stderr is appended here.
    pub log: PathBuf,
}

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    stdout_reader: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Start the server on `dir` and return once it prints
    /// `listening on ADDR`.
    pub fn spawn(launch: &Launch, dir: &Path) -> Result<ServerProc, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&launch.log)
            .map_err(|e| format!("server log {}: {e}", launch.log.display()))?;
        let mut cmd = Command::new(&launch.exe);
        cmd.arg("--dir").arg(dir).arg("--addr").arg("127.0.0.1:0");
        for (name, path) in &launch.loads {
            cmd.arg("--load").arg(format!("{name}={}", path.display()));
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", launch.exe.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".to_string());
        };
        // Read stdout until the process exits, handing the readiness line
        // over; the thread ends at EOF and is joined when the server stops.
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut proc =
            ServerProc { child, addr: String::new(), stdout_reader: Some(stdout_reader) };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err(format!("server did not report listening within {READY_TIMEOUT:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A kB field of `/proc/<pid>/status`, such as `VmRSS` or `VmHWM`.
    pub fn status_kb(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line =
            status.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// User plus system CPU time, in clock ticks.
    pub fn cpu_ticks(&self) -> Option<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')')?.1;
        let f: Vec<&str> = rest.split_whitespace().collect();
        Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
    }

    /// Wait for the process to exit on its own (after a `Shutdown`
    /// request) and check that it exited cleanly.
    pub fn wait_exit(mut self) -> Result<(), String> {
        let deadline = std::time::Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    return Err(format!("server still running {EXIT_TIMEOUT:?} after Shutdown"))
                }
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        if let Some(h) = self.stdout_reader.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout_reader.take() {
            let _ = h.join();
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy the regular files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.metadata()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}
