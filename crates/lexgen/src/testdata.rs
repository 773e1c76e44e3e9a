//! Test inputs shared by the crate's unit tests: a full-sized SQL token
//! set and deterministic scripts over it.

use crate::tokenset::TokenSet;

/// SQL:2003 reserved words plus a few common non-reserved ones.
const SQL_KEYWORDS: &str = "
    ABS ALL ALLOCATE ALTER AND ANY ARE ARRAY AS ASC ASENSITIVE ASYMMETRIC AT ATOMIC
    AUTHORIZATION AVG BEGIN BETWEEN BIGINT BINARY BLOB BOOLEAN BOTH BY CALL CALLED
    CARDINALITY CASCADED CASE CAST CEIL CEILING CHAR CHARACTER CHARACTER_LENGTH
    CHAR_LENGTH CHECK CLOB CLOSE COALESCE COLLATE COLLECT COLUMN COMMIT CONDITION
    CONNECT CONSTRAINT CONVERT CORR CORRESPONDING COUNT COVAR_POP COVAR_SAMP CREATE
    CROSS CUBE CUME_DIST CURRENT CURRENT_DATE CURRENT_DEFAULT_TRANSFORM_GROUP
    CURRENT_PATH CURRENT_ROLE CURRENT_TIME CURRENT_TIMESTAMP
    CURRENT_TRANSFORM_GROUP_FOR_TYPE CURRENT_USER CURSOR CYCLE DATE DAY DEALLOCATE
    DEC DECIMAL DECLARE DEFAULT DELETE DENSE_RANK DEREF DESC DESCRIBE DETERMINISTIC
    DISCONNECT DISTINCT DOUBLE DROP DYNAMIC EACH ELEMENT ELSE END ESCAPE EVERY EXCEPT
    EXEC EXECUTE EXISTS EXP EXTERNAL EXTRACT FALSE FETCH FILTER FIRST FLOAT FLOOR FOR
    FOREIGN FREE FROM FULL FUNCTION FUSION GET GLOBAL GRANT GROUP GROUPING HAVING
    HOLD HOUR IDENTITY IN INDICATOR INNER INOUT INSENSITIVE INSERT INT INTEGER
    INTERSECT INTERSECTION INTERVAL INTO IS JOIN LANGUAGE LARGE LAST LATERAL LEADING
    LEFT LIKE LIMIT LN LOCAL LOCALTIME LOCALTIMESTAMP LOWER MATCH MAX MEMBER MERGE
    METHOD MIN MINUTE MOD MODIFIES MODULE MONTH MULTISET NATIONAL NATURAL NCHAR
    NCLOB NEW NEXT NO NONE NORMALIZE NOT NULL NULLIF NULLS NUMERIC OCTET_LENGTH OF
    OFFSET OLD ON ONLY OPEN OR ORDER OUT OUTER OVER OVERLAPS OVERLAY PARAMETER
    PARTITION PERCENTILE_CONT PERCENTILE_DISC PERCENT_RANK POSITION POWER PRECISION
    PREPARE PRIMARY PROCEDURE RANGE RANK READS REAL RECURSIVE REF REFERENCES
    REFERENCING REGR_AVGX REGR_AVGY REGR_COUNT REGR_INTERCEPT REGR_R2 REGR_SLOPE
    REGR_SXX REGR_SXY REGR_SYY RELEASE RESULT RETURN RETURNS REVOKE RIGHT ROLLBACK
    ROLLUP ROW ROWS ROW_NUMBER SAVEPOINT SCOPE SCROLL SEARCH SECOND SELECT SENSITIVE
    SESSION_USER SET SIMILAR SMALLINT SOME SPECIFIC SPECIFICTYPE SQL SQLEXCEPTION
    SQLSTATE SQLWARNING SQRT START STATIC STDDEV_POP STDDEV_SAMP SUBMULTISET
    SUBSTRING SUM SYMMETRIC SYSTEM SYSTEM_USER TABLE TABLESAMPLE THEN TIME TIMESTAMP
    TIMEZONE_HOUR TIMEZONE_MINUTE TO TRAILING TRANSLATE TRANSLATION TREAT TRIGGER
    TRIM TRUE UESCAPE UNION UNIQUE UNKNOWN UNNEST UPDATE UPPER USER USING VALUE
    VALUES VARCHAR VARIANCE VARYING VAR_POP VAR_SAMP WHEN WHENEVER WHERE
    WIDTH_BUCKET WINDOW WITH WITHIN WITHOUT YEAR";

/// The keywords above, the SQL punctuation, and the pattern and skip rules
/// of `sql-features/src/tokens.rs` plus the root SQL feature's comment
/// rules: a token set the size of the `full` dialect's.
pub(crate) fn sql_token_set() -> TokenSet {
    let mut ts = TokenSet::new();
    for word in SQL_KEYWORDS.split_whitespace() {
        ts.keyword(word).unwrap();
    }
    let puncts = [
        ("COMMA", ","),
        ("LPAREN", "("),
        ("RPAREN", ")"),
        ("SEMI", ";"),
        ("DOT", "."),
        ("STAR", "*"),
        ("PLUS", "+"),
        ("MINUS", "-"),
        ("SLASH", "/"),
        ("EQ", "="),
        ("NE", "<>"),
        ("LT", "<"),
        ("LE", "<="),
        ("GT", ">"),
        ("GE", ">="),
        ("CONCAT", "||"),
        ("COLON", ":"),
        ("QMARK", "?"),
    ];
    for (name, literal) in puncts {
        ts.punct(name, literal).unwrap();
    }
    ts.pattern("IDENT", "[A-Za-z_][A-Za-z0-9_]*").unwrap();
    ts.pattern("NUMBER", "[0-9]+(\\.[0-9]+)?([eE][+\\-]?[0-9]+)?")
        .unwrap();
    ts.pattern("STRING", "'([^']|'')*'").unwrap();
    ts.skip("WS", "[ \\t\\r\\n]+").unwrap();
    ts.skip("LINE_COMMENT", "--[^\\n]*").unwrap();
    ts.skip("BLOCK_COMMENT", "\\/\\*([^*]|\\*+[^*\\/])*\\*+\\/")
        .unwrap();
    ts
}

/// A script of at least `min_bytes` bytes that [`sql_token_set`] lexes
/// cleanly: statement templates in rotation, wrapped and indented like
/// hand-written SQL, with identifiers, numbers and strings drawn from a
/// fixed-seed xorshift, so the same size always yields the same bytes.
pub(crate) fn sql_script(min_bytes: usize) -> String {
    const TEMPLATES: &[&str] = &[
        "SELECT i.i, i AS i, COUNT(*)\n    FROM i JOIN i ON i.i = i.i\n    WHERE i >= n AND i <> s\n    GROUP BY i ORDER BY i DESC;\n",
        "INSERT INTO i (i, i, i)\n    VALUES (n, s, NULL), (n, s, n);\n",
        "-- i i i\nUPDATE i SET i = i + n, i = s\n    WHERE i IS NOT NULL OR i BETWEEN n AND n;\n",
        "/* i i */\nDELETE FROM i WHERE i IN (SELECT i FROM i WHERE i < n);\n",
        "SELECT CASE WHEN i > n THEN s ELSE i || s END\n    FROM i LEFT OUTER JOIN i USING (i);\n",
    ];
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz_0123456789";
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut out = String::with_capacity(min_bytes + 256);
    for template in TEMPLATES.iter().cycle() {
        if out.len() >= min_bytes {
            break;
        }
        for c in template.chars() {
            match c {
                // Identifiers sized like production schemas: 6–17 bytes.
                'i' => {
                    out.push(char::from(b'a' + next(26) as u8));
                    for _ in 0..5 + next(12) {
                        out.push(char::from(TAIL[next(TAIL.len())]));
                    }
                }
                'n' => out.push_str(&next(100_000).to_string()),
                's' => out.push_str(["'open'", "'2026-07-04'", "'it''s shipped'"][next(3)]),
                c => out.push(c),
            }
        }
    }
    out
}
