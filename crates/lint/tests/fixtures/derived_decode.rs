//! Fixture: `decode` bodies outside the codec crate are persistence paths.
//! The first names the flat cache while reading a model, which
//! `derived-state-persistence` must flag; the second rebuilds its cache
//! through a constructor without naming it, which it must accept.

impl JsonCodec for Compiled {
    fn decode(parser: &mut Parser<'_>) -> Result<Compiled, CodecError> {
        let flat = read_records(parser)?;
        Ok(Compiled { flat })
    }
}

impl JsonCodec for Rebuilt {
    fn decode(parser: &mut Parser<'_>) -> Result<Rebuilt, CodecError> {
        let trees = read_trees(parser)?;
        Ok(Rebuilt::from_trees(trees))
    }
}
