//! Property tests for the work pool's determinism contract:
//! `map_indexed` and `map_owned` must equal the serial `iter().map()` for
//! arbitrary inputs and worker counts — including empty input, a single
//! item, and item counts far exceeding the worker count.

use hdc_runtime::WorkPool;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #[test]
    fn map_equals_serial_map(items in prop::collection::vec(-1.0e6f64..1.0e6, 0..257),
                             workers in 1usize..9) {
        let pool = WorkPool::new(workers);
        let parallel = pool.map(&items, |x| (x * 1.5).sin());
        let serial: Vec<f64> = items.iter().map(|x| (x * 1.5).sin()).collect();
        prop_assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            // bitwise equality: same operation on the same input, any core
            prop_assert_eq!(p.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn map_indexed_equals_serial_enumerate(items in prop::collection::vec(0u64..1_000_000, 0..300),
                                           workers in 1usize..9) {
        let pool = WorkPool::new(workers);
        let parallel = pool.map_indexed(
            &items,
            |_| 0u64, // per-worker scratch the work function must not depend on
            |_, i, x| x.wrapping_mul(31).wrapping_add(i as u64),
        );
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn items_vastly_outnumbering_workers(len in 100usize..1500, workers in 1usize..5) {
        let items: Vec<usize> = (0..len).collect();
        let pool = WorkPool::new(workers);
        prop_assert_eq!(pool.map(&items, |&x| x + 1),
                        items.iter().map(|&x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn workers_outnumbering_items(len in 0usize..4, workers in 4usize..17) {
        let items: Vec<usize> = (0..len).collect();
        let pool = WorkPool::new(workers);
        prop_assert_eq!(pool.map(&items, |&x| x * 3),
                        items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_worker_count_agrees(items in prop::collection::vec(0u32..9999, 0..120)) {
        let reference = WorkPool::new(1).map(&items, |&x| u64::from(x) * 7 + 1);
        for workers in [2usize, 3, 4, 8] {
            let got = WorkPool::new(workers).map(&items, |&x| u64::from(x) * 7 + 1);
            prop_assert_eq!(&got, &reference, "worker count {}", workers);
        }
        for workers in [1usize, 2, 3, 8] {
            let owned = WorkPool::new(workers).map_owned(Arc::from(items.as_slice()), |&x| u64::from(x) * 7 + 1);
            prop_assert_eq!(&owned, &reference, "map_owned at worker count {}", workers);
        }
    }
}
