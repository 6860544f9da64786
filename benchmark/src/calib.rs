//! The reference kernels a run is calibrated against.
//!
//! The benchmark's hosts are small guests on shared machines, where the same
//! instructions take 10-60 % longer for seconds or minutes at a time
//! (neighbours on the same caches, memory channels and cores) and a request
//! that hops between two threads pays whatever it costs that minute to wake
//! a halted vCPU. No estimator over raw times removes that: the median, the
//! lower quartile and the minimum of a 30 s run all moved by 10-25 % between
//! runs of one build. What does remove most of it is to time a fixed piece
//! of the harness's own work right beside every cycle and to report the
//! cycle's latencies relative to it.
//!
//! Two kernels, because the workloads are slowed by two different things:
//!
//! * [`Calibrator::pipeline_ms`]: sort 60 000 values, then three
//!   compare-and-pack passes over an 8 MB column with a popcount — the kind
//!   of work a pipeline run does (quantiles, predicate bitmaps, counts) — on
//!   two threads at once, as many as every deployment keeps busy. Over a
//!   seven minute drift of the sizing host that took an in-process
//!   whole-table explore from 227 to 140 ms, explore time divided by this
//!   kernel's stayed within 1.8 % (sort alone over-corrected, packing alone
//!   under-corrected, a pure arithmetic loop did not move at all).
//! * [`Calibrator::echo_ms`]: round trips over a loopback connection to an
//!   echo thread that sorts a small buffer and answers with a reply as large
//!   as a served one — the shape of a cache-hit step: two thread wake-ups, a
//!   few hundred microseconds of branchy work, 10 KiB back.
//!
//! Neither calls into the repo's crates, so no change to them can move the
//! yardstick. Which kernel a workload is held against is its
//! [`Yardstick`]; `benchmark/README.md` has the measurements behind the
//! choice.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Values in the packed column (8 MB of `f64`).
const COLUMN_VALUES: usize = 1 << 20;
/// Compare-and-pack passes over the column per reading.
const PACK_PASSES: usize = 3;
/// Values sorted per reading.
const SORT_VALUES: usize = 60_000;
/// Bytes an echo request carries, and bytes its reply does (a whole-table
/// explore answers about 10 KiB).
const ECHO_REQUEST: usize = 256;
const ECHO_REPLY: usize = 10 << 10;
/// Values the echo thread sorts per request.
const ECHO_SORT_VALUES: usize = 10_000;
/// Round trips per reading.
const ECHO_TRIPS: usize = 4;
/// First byte of the echo request that asks for the echo thread's CPU time
/// instead of a sort.
const REPORT_CPU: u8 = 0xff;

/// What the readings are on the sizing host in a calm hour. A calibrated
/// latency is the measured one times `reference / reading`, so it reads in
/// milliseconds of a host on which the kernels take this long.
pub const PIPELINE_REFERENCE_MS: f64 = 4.0;
pub const ECHO_REFERENCE_MS: f64 = 1.1;

/// What a workload's latencies are held against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yardstick {
    /// The pipeline kernel: steps that are pipeline runs.
    Pipeline,
    /// Half the pipeline kernel, half the echo: steps that are a few
    /// hundred microseconds of work between two thread wake-ups.
    PipelineAndEcho,
}

/// One pipeline kernel: sort a slice of the column, then pack it.
fn pipeline(column: &[f64], scratch: &mut Vec<f64>, words: &mut [u64]) -> u64 {
    scratch.clear();
    scratch.extend_from_slice(&column[..SORT_VALUES.min(column.len())]);
    scratch.sort_by(f64::total_cmp);
    words.fill(0);
    for _ in 0..PACK_PASSES {
        for (word, chunk) in words.iter_mut().zip(column.chunks_exact(64)) {
            let mut mask = 0u64;
            for (bit, &value) in chunk.iter().enumerate() {
                mask |= u64::from(value > 5_000_000.0) << bit;
            }
            *word ^= mask;
        }
    }
    let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
    std::hint::black_box(u64::from(ones) ^ scratch[scratch.len() / 2].to_bits())
}

/// Milliseconds the calling thread has spent on a CPU
/// (`/proc/thread-self/schedstat`, nanosecond resolution); 0 where the file
/// does not exist.
fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e6)
}

/// What the second pipeline thread is asked to do.
enum Job {
    Pipeline,
    ReportCpu,
}

/// The column both kernels draw from: a fixed pseudo-random sequence.
fn column(values: usize) -> Vec<f64> {
    (0..values as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64)
        .collect()
}

fn echo_loop(listener: TcpListener) {
    let Ok((mut stream, _)) = listener.accept() else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let unsorted = column(ECHO_SORT_VALUES);
    let mut scratch = Vec::with_capacity(ECHO_SORT_VALUES);
    let mut request = [0u8; ECHO_REQUEST];
    let mut reply = vec![0x5au8; ECHO_REPLY];
    // Ends when the calibrator drops its end of the connection.
    while stream.read_exact(&mut request).is_ok() {
        let answer = if request[0] == REPORT_CPU {
            thread_cpu_ms()
        } else {
            scratch.clear();
            scratch.extend_from_slice(&unsorted);
            scratch.sort_by(f64::total_cmp);
            scratch[usize::from(request[0]) % scratch.len()]
        };
        reply[..8].copy_from_slice(&answer.to_bits().to_le_bytes());
        if stream.write_all(&reply).is_err() {
            return;
        }
    }
}

/// The two kernels and the threads they run on. Dropping it ends and joins
/// both threads.
pub struct Calibrator {
    column: Arc<Vec<f64>>,
    scratch: Vec<f64>,
    words: Vec<u64>,
    /// The second pipeline thread: told what to do, answers when done (with
    /// its CPU time so far).
    second_go: Option<Sender<Job>>,
    second_done: Receiver<f64>,
    second: Option<JoinHandle<()>>,
    echo: Option<TcpStream>,
    echoer: Option<JoinHandle<()>>,
    request: [u8; ECHO_REQUEST],
    reply: Vec<u8>,
    /// CPU time the calling thread spent inside [`Calibrator::slowdown`].
    own_cpu_ms: f64,
}

impl Calibrator {
    pub fn start() -> std::io::Result<Calibrator> {
        let column = Arc::new(column(COLUMN_VALUES));
        let (second_go, go) = channel::<Job>();
        let (done, second_done) = channel::<f64>();
        let theirs = Arc::clone(&column);
        let second = std::thread::spawn(move || {
            let mut scratch = Vec::with_capacity(SORT_VALUES);
            let mut words = vec![0u64; COLUMN_VALUES / 64];
            while let Ok(job) = go.recv() {
                let cpu_ms = match job {
                    Job::Pipeline => {
                        pipeline(&theirs, &mut scratch, &mut words);
                        0.0
                    }
                    Job::ReportCpu => thread_cpu_ms(),
                };
                if done.send(cpu_ms).is_err() {
                    return;
                }
            }
        });
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let echoer = std::thread::spawn(move || echo_loop(listener));
        let echo = TcpStream::connect(addr)?;
        echo.set_nodelay(true)?;
        Ok(Calibrator {
            column,
            scratch: Vec::with_capacity(SORT_VALUES),
            words: vec![0u64; COLUMN_VALUES / 64],
            second_go: Some(second_go),
            second_done,
            second: Some(second),
            echo: Some(echo),
            echoer: Some(echoer),
            request: [0x3c; ECHO_REQUEST],
            reply: vec![0; ECHO_REPLY],
            own_cpu_ms: 0.0,
        })
    }

    /// One pipeline reading in milliseconds: the kernel on both threads at
    /// once, until the slower one is done.
    pub fn pipeline_ms(&mut self) -> f64 {
        let started = Instant::now();
        let asked = self
            .second_go
            .as_ref()
            .is_some_and(|go| go.send(Job::Pipeline).is_ok());
        pipeline(&self.column, &mut self.scratch, &mut self.words);
        if asked {
            let _ = self.second_done.recv();
        }
        started.elapsed().as_secs_f64() * 1e3
    }

    /// One echo reading in milliseconds: `ECHO_TRIPS` round trips.
    pub fn echo_ms(&mut self) -> f64 {
        let started = Instant::now();
        let Some(stream) = self.echo.as_mut() else {
            return f64::NAN;
        };
        for trip in 0..ECHO_TRIPS {
            self.request[0] = trip as u8;
            if stream.write_all(&self.request).is_err()
                || stream.read_exact(&mut self.reply).is_err()
            {
                return f64::NAN;
            }
        }
        std::hint::black_box(&self.reply);
        started.elapsed().as_secs_f64() * 1e3
    }
}

impl Calibrator {
    /// How slow the host is right now by `yardstick`: 1.0 on the sizing
    /// host in a calm hour. Every kernel runs twice and the faster time
    /// counts, so a blip shorter than a kernel does not pass for a slow host.
    pub fn slowdown(&mut self, yardstick: Yardstick) -> f64 {
        let cpu_before = thread_cpu_ms();
        let pipeline = self.pipeline_ms().min(self.pipeline_ms()) / PIPELINE_REFERENCE_MS;
        let slowdown = match yardstick {
            Yardstick::Pipeline => pipeline,
            Yardstick::PipelineAndEcho => {
                let echo = self.echo_ms().min(self.echo_ms()) / ECHO_REFERENCE_MS;
                (pipeline + echo) / 2.0
            }
        };
        self.own_cpu_ms += thread_cpu_ms() - cpu_before;
        slowdown
    }

    /// CPU time the calibrator has used so far on all of its threads, in
    /// milliseconds, so that a phase's CPU time can be reported without it.
    pub fn cpu_ms(&mut self) -> f64 {
        let second = match &self.second_go {
            Some(go) if go.send(Job::ReportCpu).is_ok() => self.second_done.recv().unwrap_or(0.0),
            _ => 0.0,
        };
        self.request[0] = REPORT_CPU;
        let mut echoer = 0.0;
        if let Some(stream) = self.echo.as_mut() {
            if stream.write_all(&self.request).is_ok() && stream.read_exact(&mut self.reply).is_ok()
            {
                echoer = f64::from_bits(u64::from_le_bytes(
                    self.reply[..8].try_into().expect("8 bytes"),
                ));
            }
        }
        self.own_cpu_ms + second + echoer
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // Closing the channel and the connection ends the two loops.
        self.second_go.take();
        self.echo.take();
        for thread in [self.second.take(), self.echoer.take()]
            .into_iter()
            .flatten()
        {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kernels_run_and_read_positive_times() {
        let mut calibrator = Calibrator::start().unwrap();
        assert!(calibrator.pipeline_ms() > 0.0);
        assert!(calibrator.echo_ms() > 0.0);
        for yardstick in [Yardstick::Pipeline, Yardstick::PipelineAndEcho] {
            let slowdown = calibrator.slowdown(yardstick);
            assert!(slowdown.is_finite() && slowdown > 0.0);
        }
        // Three threads ran kernels for milliseconds each.
        let cpu_ms = calibrator.cpu_ms();
        assert!(cpu_ms.is_finite() && cpu_ms >= 0.0);
        assert!(calibrator.cpu_ms() >= cpu_ms);
        // Dropping it ends and joins both threads (the test would hang).
    }

    #[test]
    fn the_pipeline_kernel_is_the_same_work_every_time() {
        let column = column(COLUMN_VALUES);
        let mut scratch = Vec::new();
        let mut words = vec![0u64; COLUMN_VALUES / 64];
        let first = pipeline(&column, &mut scratch, &mut words);
        assert_eq!(first, pipeline(&column, &mut scratch, &mut words));
        assert!(scratch.windows(2).all(|w| w[0] <= w[1]));
    }
}
