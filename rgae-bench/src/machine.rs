//! Process readings from `/proc` and the machine fingerprint printed with
//! every result.

use std::process::Command;

use rgae_obs::Json;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields. Linux fixes
/// `USER_HZ` at 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds used so far by this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it are plain.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let ticks = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Cores the process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Json {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or(Json::Null, |s| Json::Str(s.trim().to_owned()))
}

fn cpu_model() -> Json {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .map_or(Json::Null, Json::Str)
}

/// The environment the orchestrator was started with that can change a
/// result: `GLIBC_TUNABLES` and every `RGAE_*` variable. Repeats run with
/// all of them removed; this records what was removed.
pub fn inherited_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k == "GLIBC_TUNABLES" || k.starts_with("RGAE_"))
        .collect();
    vars.sort();
    vars
}

/// Machine and build fingerprint. `threads` and `tile` are the values the
/// child processes report they pinned.
pub fn fingerprint(threads: Json, tile: Json) -> Json {
    let env = inherited_env();
    Json::Obj(vec![
        (
            "available_parallelism".into(),
            Json::Int(available_parallelism() as i64),
        ),
        ("par_threads".into(), threads),
        ("decoder_tile".into(), tile),
        (
            "inherited_env".into(),
            Json::Obj(env.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
        (
            "git_rev".into(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
        ("rustc".into(), command_line("rustc", &["--version"])),
        ("cpu_model".into(), cpu_model()),
    ])
}
