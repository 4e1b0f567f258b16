(** Recursive-descent parser for the SPARQL-UO subset, extended with the
    SPARQL 1.1 features a practical engine needs.

    Grammar:
    {v
    query    := prefixes ( select | ask | construct | describe ) modifiers
    select   := SELECT DISTINCT? ( '*' | var+ | ε ) WHERE? group
    ask      := ASK WHERE? group
    construct:= CONSTRUCT '{' triples '}' WHERE group
    describe := DESCRIBE (var | iri)+ (WHERE group)?
    group    := '{' element* '}'
    element  := triples | group ('UNION' group)* | OPTIONAL group
              | MINUS group | FILTER expr | VALUES values
    values   := var '{' cell* '}' | '(' var* ')' '{' ('(' cell* ')')* '}'
    expr     := full expression grammar: || && comparisons + - * /
                unary !/-, function calls (str, lang, datatype, isIRI,
                isLiteral, isBlank, sameTerm, regex, strlen, ucase,
                lcase, contains, strstarts, strends, abs, bound),
                EXISTS group, NOT EXISTS group
    modifiers:= (ORDER BY (var | ASC(var) | DESC(var))+)? (LIMIT n)?
                (OFFSET n)?   — LIMIT/OFFSET in either order
    v}
    A missing projection list (the paper's "SELECT WHERE") is treated as
    [SELECT *]. *)

exception Parse_error of { line : int; message : string }

(** [parse src] parses a complete query. Prefixes declared in the query
    extend the default namespace environment. *)
val parse : string -> Ast.query

(** [parse_update src] parses a [;]-separated sequence of SPARQL 1.1
    Update operations (INSERT DATA, DELETE DATA, DELETE WHERE,
    DELETE/INSERT ... WHERE), with PREFIX declarations. *)
val parse_update : string -> Ast.update list
