//! Known-bad fixture for the spawn rule: threads started outside
//! `filterwatch_scanner::merge::ordered_parallel`, joined in completion
//! order. Expected: four `clippy::disallowed_methods` errors.

use std::sync::mpsc;

pub fn fan_out(shards: Vec<Vec<String>>) -> Vec<usize> {
    let mut sizes = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for shard in shards {
            handles.push(s.spawn(move || shard.len()));
        }
        for handle in handles {
            if let Ok(n) = handle.join() {
                sizes.push(n);
            }
        }
    });
    sizes
}

pub fn first_done(shards: Vec<Vec<String>>) -> Option<usize> {
    let (send, receive) = mpsc::channel();
    for shard in shards {
        let send = send.clone();
        std::thread::spawn(move || send.send(shard.len()));
    }
    drop(send);
    receive.recv().ok()
}

pub fn named(shard: Vec<String>) -> Option<usize> {
    let worker = std::thread::Builder::new()
        .spawn(move || shard.len())
        .ok()?;
    worker.join().ok()
}

pub fn named_scoped(shard: &[String]) -> Option<usize> {
    std::thread::scope(|s| {
        let worker = std::thread::Builder::new()
            .spawn_scoped(s, || shard.len())
            .ok()?;
        worker.join().ok()
    })
}
