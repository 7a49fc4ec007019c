//! The counting allocator against hand-computed fixtures. Alone in its
//! test binary: the counter is process-wide, and no other test may
//! allocate while this one counts.

use docs_canonical_bench::alloc::allocations;
use std::hint::black_box;

#[test]
fn counts_every_allocation_and_nothing_else() {
    // One box, one allocation.
    let before = allocations();
    let boxed = black_box(Box::new(7u64));
    assert_eq!(allocations() - before, 1);
    drop(boxed);
    // Frees are not counted.
    assert_eq!(allocations() - before, 1);

    // An empty vector allocates nothing; growing it past its capacity is
    // one `alloc` and later one `realloc`.
    let before = allocations();
    let mut v: Vec<u8> = black_box(Vec::new());
    assert_eq!(allocations() - before, 0);
    v.reserve_exact(16);
    assert_eq!(allocations() - before, 1);
    v.extend_from_slice(&[0; 16]);
    assert_eq!(
        allocations() - before,
        1,
        "filling reserved capacity is free"
    );
    v.reserve_exact(4096);
    assert_eq!(allocations() - before, 2, "growth is one realloc");
    black_box(&v);

    // A thousand boxes collected into an exactly-sized vector: 1001.
    let before = allocations();
    let boxes: Vec<Box<usize>> = (0..1000).map(|i| black_box(Box::new(i))).collect();
    assert_eq!(allocations() - before, 1001);
    drop(boxes);

    // Other threads count into the same total.
    let before = allocations();
    std::thread::spawn(|| {
        for i in 0..100u32 {
            black_box(Box::new(i));
        }
    })
    .join()
    .expect("allocating thread");
    let counted = allocations() - before;
    // Spawning and joining a thread allocates a little itself.
    assert!((100..200).contains(&counted), "counted {counted}");
}
