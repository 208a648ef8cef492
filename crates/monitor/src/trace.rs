//! The raw row a record is budgeted at.

#[cfg(test)]
mod tests {
    use cellrel_ingest::codec::RAW_RECORD_BYTES;

    #[test]
    fn encoded_size_is_compact() {
        // device, kind, start, duration, cause (optional flag folded in),
        // then the context: rat, level, apn, bs, isp.
        let fields = [4u64, 1, 8, 8, 2, 1, 1, 1, 8, 1];
        assert_eq!(fields.iter().sum::<u64>(), RAW_RECORD_BYTES);
    }
}
