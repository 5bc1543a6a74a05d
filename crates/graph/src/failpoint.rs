//! Fault-injection failpoints for the I/O layer.
//!
//! Every I/O seam in this crate — buffered file reads, snapshot cache
//! writes, mmap setup, cache regeneration — consults a named failpoint
//! before (and sometimes after) touching the disk. When the registry is
//! empty the consultation is one relaxed atomic load, so production runs
//! pay nothing; chaos tests (and downstream users via the
//! `CLDIAM_FAILPOINTS` environment variable) arm sites with faults:
//!
//! * `eio` / `enospc` / `interrupted` / `eof` — return the corresponding
//!   [`std::io::Error`] from the seam.
//! * `truncate:N` — truncate a just-read (or about-to-be-written) buffer
//!   to `N` bytes, simulating a torn read or a crash mid-write.
//! * `bitflip:N` — flip one bit at byte offset `N % len`, simulating
//!   silent media corruption.
//! * `partial:N` — write only the first `N` bytes, then fail with
//!   `enospc` (a disk-full mid-write; the atomic writer discards the
//!   partial temp file).
//! * `torn:N` — write only the first `N` bytes but report success,
//!   simulating a crash *after* the rename: the next load must recover.
//! * `delay:MS` — sleep `MS` milliseconds at the seam.
//!
//! An action may carry a shot count (`action*K`): the fault fires on the
//! first `K` consultations and the site behaves normally afterwards —
//! how transient-error retry paths are exercised (`interrupted*2`).
//!
//! The environment variable holds `site=action` pairs separated by `;`,
//! e.g. `CLDIAM_FAILPOINTS='io::read=eio;cache::write=torn:100'`. Tests
//! use [`scoped`], which also serializes chaos scenarios across test
//! threads (the registry is process-global).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What an armed failpoint does when its site is consulted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Return an I/O error of this kind from the seam.
    Err(std::io::ErrorKind),
    /// Truncate the buffer passing through the seam to this many bytes.
    Truncate(usize),
    /// Flip one bit at this byte offset (modulo the buffer length).
    BitFlip(usize),
    /// Write only this many bytes, then fail with `ENOSPC`.
    Partial(usize),
    /// Write only this many bytes but report success (crash simulation).
    Torn(usize),
    /// Sleep this many milliseconds.
    Delay(u64),
}

struct Entry {
    action: FailAction,
    /// Remaining shots; `None` = unlimited.
    remaining: Option<usize>,
}

/// Fast-path switch: `true` only while at least one site is armed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether `CLDIAM_FAILPOINTS` has been consulted yet. Until it has, an
/// inactive-looking registry might just be an unparsed environment, so the
/// fast path must fall through to [`init_from_env`] once.
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
    // lint:allow(hash-determinism): lookup-only registry keyed by site name;
    // iteration order is never observed by any output path.
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> MutexGuard<'static, HashMap<String, Entry>> {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Parses and arms `CLDIAM_FAILPOINTS` once per process.
fn init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("CLDIAM_FAILPOINTS") {
            let mut map = lock_registry();
            for pair in spec.split(';').filter(|p| !p.trim().is_empty()) {
                match parse_pair(pair) {
                    Ok((site, entry)) => {
                        map.insert(site, entry);
                    }
                    Err(e) => eprintln!("[cldiam] ignoring bad CLDIAM_FAILPOINTS entry: {e}"),
                }
            }
            if !map.is_empty() {
                ACTIVE.store(true, Ordering::Relaxed);
            }
        }
    });
}

/// Parses one `site=action[:arg][*count]` pair.
fn parse_pair(pair: &str) -> Result<(String, Entry), String> {
    let (site, spec) =
        pair.split_once('=').ok_or_else(|| format!("{pair:?} is not site=action"))?;
    let (spec, remaining) = match spec.rsplit_once('*') {
        Some((action, count)) => {
            let count =
                count.parse::<usize>().map_err(|_| format!("bad shot count in {pair:?}"))?;
            (action, Some(count))
        }
        None => (spec, None),
    };
    let (name, arg) = match spec.split_once(':') {
        Some((name, arg)) => (name, Some(arg)),
        None => (spec, None),
    };
    let num = |what: &str| -> Result<usize, String> {
        arg.and_then(|a| a.parse().ok()).ok_or_else(|| format!("{name} needs a numeric {what}"))
    };
    let action = match name.trim() {
        "eio" => FailAction::Err(std::io::ErrorKind::Other),
        "enospc" => FailAction::Err(std::io::ErrorKind::StorageFull),
        "interrupted" => FailAction::Err(std::io::ErrorKind::Interrupted),
        "eof" => FailAction::Err(std::io::ErrorKind::UnexpectedEof),
        "truncate" => FailAction::Truncate(num("length")?),
        "bitflip" => FailAction::BitFlip(num("offset")?),
        "partial" => FailAction::Partial(num("length")?),
        "torn" => FailAction::Torn(num("length")?),
        "delay" => FailAction::Delay(num("milliseconds")? as u64),
        other => return Err(format!("unknown action {other:?}")),
    };
    Ok((site.trim().to_string(), Entry { action, remaining }))
}

/// Consults `site` and consumes one shot if armed. `None` on the fast path.
fn consume(site: &str) -> Option<FailAction> {
    if !ACTIVE.load(Ordering::Relaxed) {
        if ENV_CHECKED.load(Ordering::Relaxed) {
            return None;
        }
        init_from_env();
        ENV_CHECKED.store(true, Ordering::Relaxed);
        if !ACTIVE.load(Ordering::Relaxed) {
            return None;
        }
    }
    let mut map = lock_registry();
    let entry = map.get_mut(site)?;
    let action = entry.action.clone();
    match &mut entry.remaining {
        Some(0) => return None,
        Some(n) => *n -= 1,
        None => {}
    }
    Some(action)
}

/// Injects a plain error or delay at `site`. Data-mutating actions
/// (`truncate`/`bitflip`) do not fire here — they wait for
/// [`mutate_buffer`] — but write-seam actions (`partial`/`torn`) report
/// `ENOSPC` so read seams armed with them fail loudly instead of silently.
pub fn inject(site: &str) -> std::io::Result<()> {
    match consume(site) {
        None => Ok(()),
        Some(FailAction::Err(kind)) => Err(std::io::Error::new(kind, format!("failpoint {site}"))),
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(FailAction::Truncate(_)) | Some(FailAction::BitFlip(_)) => Ok(()),
        Some(FailAction::Partial(_)) | Some(FailAction::Torn(_)) => Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            format!("failpoint {site} (write action on a read seam)"),
        )),
    }
}

/// Applies a data-mutating fault to a just-read buffer: truncation or a
/// bit flip. Error actions also fire here so a read seam that only has a
/// post-read hook still fails. Delays sleep.
pub fn mutate_buffer(site: &str, buf: &mut Vec<u8>) -> std::io::Result<()> {
    match consume(site) {
        None => Ok(()),
        Some(FailAction::Truncate(len)) => {
            buf.truncate(len);
            Ok(())
        }
        Some(FailAction::BitFlip(offset)) => {
            if !buf.is_empty() {
                let at = offset % buf.len();
                buf[at] ^= 1 << (offset % 8);
            }
            Ok(())
        }
        Some(FailAction::Err(kind)) => Err(std::io::Error::new(kind, format!("failpoint {site}"))),
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(FailAction::Partial(_)) | Some(FailAction::Torn(_)) => Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            format!("failpoint {site} (write action on a read seam)"),
        )),
    }
}

/// Outcome of consulting a write seam before it writes `bytes`.
pub enum WriteFault {
    /// No fault: write all bytes normally.
    None,
    /// Fail without writing anything.
    Err(std::io::Error),
    /// Write only this prefix, then fail with `ENOSPC`.
    Partial(usize),
    /// Write only this prefix but report success (crash simulation).
    Torn(usize),
    /// Write a copy of the buffer with one bit flipped (silent corruption).
    Corrupt(Vec<u8>),
}

/// Consults a write seam about to persist `bytes`.
pub fn on_write(site: &str, bytes: &[u8]) -> WriteFault {
    match consume(site) {
        None => WriteFault::None,
        Some(FailAction::Err(kind)) => {
            WriteFault::Err(std::io::Error::new(kind, format!("failpoint {site}")))
        }
        Some(FailAction::Partial(len)) => WriteFault::Partial(len.min(bytes.len())),
        Some(FailAction::Torn(len)) | Some(FailAction::Truncate(len)) => {
            WriteFault::Torn(len.min(bytes.len()))
        }
        Some(FailAction::BitFlip(offset)) => {
            let mut copy = bytes.to_vec();
            if !copy.is_empty() {
                let at = offset % copy.len();
                copy[at] ^= 1 << (offset % 8);
            }
            WriteFault::Corrupt(copy)
        }
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            WriteFault::None
        }
    }
}

/// A scoped failpoint configuration for tests. Arms the given
/// `(site, action)` pairs on construction and clears the whole registry on
/// drop. Also holds a process-global lock so concurrently running chaos
/// scenarios never see each other's faults.
pub struct FailpointGuard {
    _serial: MutexGuard<'static, ()>,
}

fn serial_lock() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms failpoints from `site=action` specs (the env-var syntax) for the
/// lifetime of the returned guard.
///
/// # Panics
///
/// Panics on a malformed spec — test configuration errors should be loud.
// lint:allow(dead-pub): the test registry's entry point; the chaos suites
// arm failpoints through it, production arms them from the environment.
pub fn scoped(specs: &[&str]) -> FailpointGuard {
    let serial = serial_lock();
    let mut map = lock_registry();
    map.clear();
    for spec in specs {
        let (site, entry) = parse_pair(spec).expect("bad failpoint spec");
        map.insert(site, entry);
    }
    ACTIVE.store(!map.is_empty(), Ordering::Relaxed);
    drop(map);
    FailpointGuard { _serial: serial }
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        let mut map = lock_registry();
        map.clear();
        ACTIVE.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test arms sites of its own: the checks made without a guard
    // would otherwise see a site another test has armed meanwhile.

    #[test]
    fn disabled_failpoints_are_inert() {
        assert!(inject("inert::read").is_ok());
        let mut buf = vec![1, 2, 3];
        assert!(mutate_buffer("inert::read", &mut buf).is_ok());
        assert_eq!(buf, vec![1, 2, 3]);
        assert!(matches!(on_write("inert::write", &buf), WriteFault::None));
    }

    #[test]
    fn scoped_guard_arms_and_disarms() {
        {
            let _guard = scoped(&["guard::read=eio"]);
            let err = inject("guard::read").unwrap_err();
            assert!(err.to_string().contains("failpoint guard::read"));
            // Other sites stay clean.
            assert!(inject("guard::write").is_ok());
        }
        assert!(inject("guard::read").is_ok());
    }

    #[test]
    fn shot_counts_expire() {
        let _guard = scoped(&["shots::read=interrupted*2"]);
        assert_eq!(inject("shots::read").unwrap_err().kind(), std::io::ErrorKind::Interrupted);
        assert_eq!(inject("shots::read").unwrap_err().kind(), std::io::ErrorKind::Interrupted);
        assert!(inject("shots::read").is_ok());
    }

    #[test]
    fn buffer_mutations_truncate_and_flip() {
        {
            let _guard = scoped(&["a=truncate:2"]);
            let mut buf = vec![1u8, 2, 3, 4];
            mutate_buffer("a", &mut buf).unwrap();
            assert_eq!(buf, vec![1, 2]);
        }
        let _guard = scoped(&["a=bitflip:1"]);
        let mut buf = vec![0u8, 0, 0];
        mutate_buffer("a", &mut buf).unwrap();
        assert_eq!(buf, vec![0, 2, 0]);
    }

    #[test]
    fn write_faults_partial_and_torn() {
        {
            let _guard = scoped(&["w=partial:3"]);
            match on_write("w", &[9u8; 10]) {
                WriteFault::Partial(3) => {}
                other => panic!("unexpected {:?}", discriminant_name(&other)),
            }
        }
        let _guard = scoped(&["w=torn:0"]);
        match on_write("w", &[9u8; 10]) {
            WriteFault::Torn(0) => {}
            other => panic!("unexpected {:?}", discriminant_name(&other)),
        }
    }

    fn discriminant_name(fault: &WriteFault) -> &'static str {
        match fault {
            WriteFault::None => "None",
            WriteFault::Err(_) => "Err",
            WriteFault::Partial(_) => "Partial",
            WriteFault::Torn(_) => "Torn",
            WriteFault::Corrupt(_) => "Corrupt",
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(parse_pair("no-equals").is_err());
        assert!(parse_pair("a=unknown").is_err());
        assert!(parse_pair("a=truncate").is_err());
        assert!(parse_pair("a=eio*x").is_err());
    }
}
