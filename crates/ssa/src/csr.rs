//! Flat ("compressed sparse row") tables: every row of a table of lists
//! in one array, row `r` at `flat[offsets[r]..offsets[r + 1]]`. SSA
//! construction keeps its per-block and per-variable lists this way so a
//! procedure costs a few allocations, not one per list.

/// Row `r` of the table.
pub(crate) fn row<'a, T>(offsets: &[u32], flat: &'a [T], r: usize) -> &'a [T] {
    &flat[offsets[r] as usize..offsets[r + 1] as usize]
}

/// Groups `items` into `n_rows` rows by `key`, keeping input order within
/// a row (a stable counting sort); `val` is what each item stores.
pub(crate) fn group<P, V: Copy>(
    items: &[P],
    n_rows: usize,
    key: impl Fn(&P) -> usize,
    val: impl Fn(&P) -> V,
    offsets: &mut Vec<u32>,
    flat: &mut Vec<V>,
) {
    offsets.clear();
    offsets.resize(n_rows + 1, 0);
    for item in items {
        offsets[key(item) + 1] += 1;
    }
    for r in 1..=n_rows {
        offsets[r] += offsets[r - 1];
    }
    flat.clear();
    if let Some(first) = items.first() {
        flat.resize(items.len(), val(first));
    }
    // Place each item at its row's cursor; the cursors end one row
    // ahead, so shift them back into starts afterwards.
    for item in items {
        let at = &mut offsets[key(item)];
        flat[*at as usize] = val(item);
        *at += 1;
    }
    for r in (1..=n_rows).rev() {
        offsets[r] = offsets[r - 1];
    }
    offsets[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_stably_by_key() {
        let items = [(2, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (0, 'e')];
        let (mut offsets, mut flat) = (Vec::new(), Vec::new());
        group(&items, 4, |p| p.0, |p| p.1, &mut offsets, &mut flat);
        assert_eq!(row(&offsets, &flat, 0), ['b', 'e']);
        assert_eq!(row(&offsets, &flat, 1), ['d']);
        assert_eq!(row(&offsets, &flat, 2), ['a', 'c']);
        assert!(row(&offsets, &flat, 3).is_empty());
    }
}
