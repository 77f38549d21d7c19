// R10 fixture: allocations written directly in hot loops. Never compiled.

fn hoisted_is_fine(items: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(items.len());
    for &x in items {
        out.push(x * 2.0); // reuse of the hoisted buffer: fine
        let tmp = vec![0.0; 4]; // FLAGGED (line 7)
        let plan = FftPlan::new(64); // FLAGGED (line 8)
        let cap = Vec::with_capacity(9); // FLAGGED (line 9)
        drop((tmp, plan, cap));
    }
    out
}

fn while_loops_count(mut n: usize) {
    while n > 0 {
        // lint: allow(r10) warm-up path, runs at most once per packet
        let hatched = vec![0u8; n];
        let unhatched = vec![1u8; n]; // FLAGGED (line 19)
        drop((hatched, unhatched));
        n -= 1;
    }
}

fn headers_are_exempt() {
    for v in vec![1, 2, 3] {
        drop(v);
    }
    let after = vec![0; 2]; // outside any loop: fine
    drop(after);
}

fn trellis_style_boxed_state(steps: &[u8]) {
    let hoisted = Box::new([0u64; 64]); // once per scratch: fine
    let mut survivors = steps.to_vec(); // hoisted copy: fine
    for &s in steps {
        let per_step = Box::new([s as u64; 64]); // FLAGGED (line 37)
        let copied = survivors.to_vec(); // FLAGGED (line 38)
        survivors.push(s);
        drop((per_step, copied));
    }
    drop(hoisted);
}

#[cfg(test)]
mod tests {
    fn test_code_is_exempt() {
        for _ in 0..3 {
            let v = vec![0; 8];
            drop(v);
        }
    }
}
