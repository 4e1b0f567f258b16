exception Parse_error of { line : int; message : string }

type state = {
  toks : Lexer.ltoken array;
  mutable cur : int;
  env : Rdf.Namespace.t;
  mutable fresh : int;  (** counter for property-path helper variables *)
}

(* Property paths (the non-closure fragment: sequence, alternation,
   inversion, grouping) are desugared at parse time into plain triple
   patterns and UNIONs, so the whole optimizer applies to them
   unchanged. *)
type path =
  | P_link of Triple_pattern.node
  | P_inv of path
  | P_seq of path * path
  | P_alt of path * path

let error st fmt =
  let line = st.toks.(st.cur).Lexer.line in
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let peek st = st.toks.(st.cur).Lexer.tok

let peek2 st =
  if st.cur + 1 < Array.length st.toks then Some st.toks.(st.cur + 1).Lexer.tok
  else None

let advance st = st.cur <- st.cur + 1

let expect st tok =
  if peek st = tok then advance st
  else
    error st "expected %s but found %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string (peek st))

(* Does the current token start a term (hence a triples block)? *)
let starts_term st =
  match peek st with
  | Lexer.VAR _ | Lexer.IRIREF _ | Lexer.QNAME _ | Lexer.STRING _
  | Lexer.INT _ | Lexer.DECIMAL _ | Lexer.KW_A ->
      true
  | _ -> false

let parse_term st =
  match peek st with
  | Lexer.VAR v ->
      advance st;
      Triple_pattern.Var v
  | Lexer.IRIREF iri ->
      advance st;
      Triple_pattern.Term (Rdf.Term.Iri iri)
  | Lexer.QNAME q ->
      advance st;
      let iri =
        try Rdf.Namespace.expand st.env q
        with Failure msg -> error st "%s" msg
      in
      Triple_pattern.Term (Rdf.Term.Iri iri)
  | Lexer.KW_A ->
      advance st;
      Triple_pattern.Term (Rdf.Term.Iri Rdf.Namespace.rdf_type)
  | Lexer.INT s ->
      advance st;
      Triple_pattern.Term (Rdf.Term.typed_literal s ~datatype:Rdf.Term.xsd_integer)
  | Lexer.DECIMAL s ->
      advance st;
      Triple_pattern.Term (Rdf.Term.typed_literal s ~datatype:Rdf.Term.xsd_double)
  | Lexer.STRING s -> (
      advance st;
      match peek st with
      | Lexer.LANGTAG lang ->
          advance st;
          Triple_pattern.Term (Rdf.Term.lang_literal s ~lang)
      | Lexer.DTYPE_SEP -> (
          advance st;
          match peek st with
          | Lexer.IRIREF iri ->
              advance st;
              Triple_pattern.Term (Rdf.Term.typed_literal s ~datatype:iri)
          | Lexer.QNAME q ->
              advance st;
              let iri =
                try Rdf.Namespace.expand st.env q
                with Failure msg -> error st "%s" msg
              in
              Triple_pattern.Term (Rdf.Term.typed_literal s ~datatype:iri)
          | _ -> error st "expected datatype IRI after ^^")
      | _ -> Triple_pattern.Term (Rdf.Term.literal s))
  | tok -> error st "expected a term but found %s" (Lexer.token_to_string tok)

let parse_constant st =
  match parse_term st with
  | Triple_pattern.Term t -> t
  | Triple_pattern.Var v -> error st "expected a constant, found ?%s" v

let fresh_path_var st =
  let v = Printf.sprintf "_pp_%d" st.fresh in
  st.fresh <- st.fresh + 1;
  v

(* path := seq ('|' seq)* ; seq := elt ('/' elt)* ;
   elt := '^' elt | '(' path ')' | iri. Closures are rejected with a
   clear message (supporting them requires recursive evaluation, outside
   this engine's scope). *)
let rec parse_path st =
  let rec alts lhs =
    if peek st = Lexer.PIPE then begin
      advance st;
      alts (P_alt (lhs, parse_path_seq st))
    end
    else lhs
  in
  alts (parse_path_seq st)

and parse_path_seq st =
  let rec seqs lhs =
    if peek st = Lexer.SLASH then begin
      advance st;
      seqs (P_seq (lhs, parse_path_elt st))
    end
    else lhs
  in
  seqs (parse_path_elt st)

and parse_path_elt st =
  let primary =
    match peek st with
    | Lexer.CARET ->
        advance st;
        P_inv (parse_path_elt st)
    | Lexer.LPAREN ->
        advance st;
        let inner = parse_path st in
        expect st Lexer.RPAREN;
        inner
    | _ -> P_link (parse_term st)
  in
  match peek st with
  | Lexer.STAR | Lexer.PLUS_SYM ->
      error st
        "property path closures (*, +) are not supported; rewrite with \
         explicit joins"
  | _ -> primary

(* Desugar [path] between [subject] and [obj]: triple patterns for links
   and sequences (via fresh variables), UNION elements for alternation. *)
let rec desugar_path st path subject obj : Ast.element list =
  match path with
  | P_link predicate -> [ Ast.Triples [ Triple_pattern.make subject predicate obj ] ]
  | P_inv inner -> desugar_path st inner obj subject
  | P_seq (a, b) ->
      let mid = Triple_pattern.Var (fresh_path_var st) in
      desugar_path st a subject mid @ desugar_path st b mid obj
  | P_alt (a, b) ->
      [ Ast.Union [ desugar_path st a subject obj; desugar_path st b subject obj ] ]

(* subject predicate object ((';' predicate object) | (',' object))* '.'?
   Returns the plain triple patterns plus any elements produced by
   property-path desugaring. *)
let parse_triples_same_subject st (tps, extras) =
  let subject = parse_term st in
  let rec predicate_object_list (tps, extras) =
    let path = parse_path st in
    let rec object_list (tps, extras) =
      let obj = parse_term st in
      let tps, extras =
        match path with
        | P_link predicate ->
            (Triple_pattern.make subject predicate obj :: tps, extras)
        | _ -> (
            (* Desugared path: plain Triples elements fold into [tps] so
               they coalesce with their siblings; UNIONs stay elements. *)
            List.fold_left
              (fun (tps, extras) element ->
                match element with
                | Ast.Triples ts -> (List.rev_append ts tps, extras)
                | other -> (tps, other :: extras))
              (tps, extras)
              (desugar_path st path subject obj))
      in
      if peek st = Lexer.COMMA then begin
        advance st;
        object_list (tps, extras)
      end
      else (tps, extras)
    in
    let acc = object_list (tps, extras) in
    if peek st = Lexer.SEMI then begin
      advance st;
      (* Tolerate a trailing ';' before '.' or '}'. *)
      if starts_term st then predicate_object_list acc else acc
    end
    else acc
  in
  let acc = predicate_object_list (tps, extras) in
  if peek st = Lexer.DOT then advance st;
  acc

let parse_triples_block st =
  let rec go acc =
    if starts_term st then go (parse_triples_same_subject st acc) else acc
  in
  let tps, extras = go ([], []) in
  let blocks = if tps = [] then [] else [ Ast.Triples (List.rev tps) ] in
  blocks @ List.rev extras

(* ---------------- FILTER expressions ---------------- *)

(* Mutual recursion with group parsing (EXISTS { ... }). *)
let rec parse_expr st : Ast.expr = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if peek st = Lexer.OROR then begin
    advance st;
    Expr.Or (lhs, parse_or st)
  end
  else lhs

and parse_and st =
  let lhs = parse_relational st in
  if peek st = Lexer.ANDAND then begin
    advance st;
    Expr.And (lhs, parse_and st)
  end
  else lhs

and parse_relational st =
  let lhs = parse_additive st in
  let cmp op =
    advance st;
    Expr.Cmp (op, lhs, parse_additive st)
  in
  match peek st with
  | Lexer.EQ -> cmp Expr.Ceq
  | Lexer.NEQ -> cmp Expr.Cneq
  | Lexer.LT -> cmp Expr.Clt
  | Lexer.GT -> cmp Expr.Cgt
  | Lexer.LE -> cmp Expr.Cle
  | Lexer.GE -> cmp Expr.Cge
  | _ -> lhs

and parse_additive st =
  let rec go lhs =
    match peek st with
    | Lexer.PLUS_SYM ->
        advance st;
        go (Expr.Arith (Expr.Add, lhs, parse_multiplicative st))
    | Lexer.MINUS_SYM ->
        advance st;
        go (Expr.Arith (Expr.Subtract, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    match peek st with
    | Lexer.STAR ->
        advance st;
        go (Expr.Arith (Expr.Multiply, lhs, parse_unary st))
    | Lexer.SLASH ->
        advance st;
        go (Expr.Arith (Expr.Divide, lhs, parse_unary st))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.BANG ->
      advance st;
      Expr.Not (parse_unary st)
  | Lexer.MINUS_SYM ->
      advance st;
      Expr.Neg (parse_unary st)
  | Lexer.PLUS_SYM ->
      advance st;
      parse_unary st
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.LPAREN ->
      advance st;
      let e = parse_or st in
      expect st Lexer.RPAREN;
      e
  | Lexer.BOUND ->
      advance st;
      expect st Lexer.LPAREN;
      let v =
        match peek st with
        | Lexer.VAR v ->
            advance st;
            v
        | _ -> error st "expected a variable in bound()"
      in
      expect st Lexer.RPAREN;
      Expr.Bound v
  | Lexer.EXISTS ->
      advance st;
      Expr.Exists (parse_group_body st)
  | Lexer.NOT_KW ->
      advance st;
      expect st Lexer.EXISTS;
      Expr.Not_exists (parse_group_body st)
  | Lexer.IDENT name -> (
      match Expr.builtin_of_name name with
      | None -> error st "unknown function %S" name
      | Some builtin ->
          advance st;
          expect st Lexer.LPAREN;
          let rec args acc =
            let acc = parse_or st :: acc in
            if peek st = Lexer.COMMA then begin
              advance st;
              args acc
            end
            else List.rev acc
          in
          let args = if peek st = Lexer.RPAREN then [] else args [] in
          expect st Lexer.RPAREN;
          let min_args, max_args = Expr.arity builtin in
          let n = List.length args in
          if n < min_args || n > max_args then
            error st "%s expects %d%s argument(s), got %d"
              (Expr.builtin_name builtin) min_args
              (if max_args > min_args then
                 Printf.sprintf "-%d" max_args
               else "")
              n;
          Expr.Call (builtin, args))
  | Lexer.VAR v ->
      advance st;
      Expr.Var v
  | _ -> (
      match parse_term st with
      | Triple_pattern.Var v -> Expr.Var v
      | Triple_pattern.Term t -> Expr.Const t)

(* ---------------- VALUES ---------------- *)

and parse_values st : Ast.values_block =
  (* Either VALUES ?x { cells } or VALUES (?x ?y) { (cells) ... }. *)
  let parse_cell () =
    match peek st with
    | Lexer.UNDEF ->
        advance st;
        None
    | _ -> Some (parse_constant st)
  in
  match peek st with
  | Lexer.VAR v ->
      advance st;
      expect st Lexer.LBRACE;
      let rec cells acc =
        if peek st = Lexer.RBRACE then begin
          advance st;
          List.rev acc
        end
        else cells ([ parse_cell () ] :: acc)
      in
      { Ast.vars = [ v ]; rows = cells [] }
  | Lexer.LPAREN ->
      advance st;
      let rec vars acc =
        match peek st with
        | Lexer.VAR v ->
            advance st;
            vars (v :: acc)
        | Lexer.RPAREN ->
            advance st;
            List.rev acc
        | tok -> error st "expected a variable in VALUES, found %s"
                   (Lexer.token_to_string tok)
      in
      let vars = vars [] in
      expect st Lexer.LBRACE;
      let rec rows acc =
        match peek st with
        | Lexer.RBRACE ->
            advance st;
            List.rev acc
        | Lexer.LPAREN ->
            advance st;
            let rec cells acc =
              if peek st = Lexer.RPAREN then begin
                advance st;
                List.rev acc
              end
              else cells (parse_cell () :: acc)
            in
            let row = cells [] in
            if List.length row <> List.length vars then
              error st "VALUES row arity %d does not match %d variables"
                (List.length row) (List.length vars);
            rows (row :: acc)
        | tok ->
            error st "expected a VALUES row, found %s" (Lexer.token_to_string tok)
      in
      { Ast.vars; rows = rows [] }
  | tok ->
      error st "expected VALUES variables, found %s" (Lexer.token_to_string tok)

(* ---------------- groups ---------------- *)

and parse_group_body st : Ast.group =
  expect st Lexer.LBRACE;
  let rec elements acc =
    match peek st with
    | Lexer.RBRACE ->
        advance st;
        List.rev acc
    | Lexer.LBRACE ->
        let first = parse_group_body st in
        let rec unions gs =
          if peek st = Lexer.UNION then begin
            advance st;
            let g = parse_group_body st in
            unions (g :: gs)
          end
          else List.rev gs
        in
        let gs = unions [ first ] in
        let element =
          match gs with [ g ] -> Ast.Group g | gs -> Ast.Union gs
        in
        (* Tolerate an optional '.' after a group, as SPARQL does. *)
        if peek st = Lexer.DOT then advance st;
        elements (element :: acc)
    | Lexer.OPTIONAL ->
        advance st;
        let g = parse_group_body st in
        if peek st = Lexer.DOT then advance st;
        elements (Ast.Optional g :: acc)
    | Lexer.MINUS_KW ->
        advance st;
        let g = parse_group_body st in
        if peek st = Lexer.DOT then advance st;
        elements (Ast.Minus g :: acc)
    | Lexer.VALUES ->
        advance st;
        let block = parse_values st in
        if peek st = Lexer.DOT then advance st;
        elements (Ast.Values block :: acc)
    | Lexer.FILTER ->
        advance st;
        let explicit_paren = peek st = Lexer.LPAREN in
        if explicit_paren then advance st;
        let e = parse_expr st in
        if explicit_paren then expect st Lexer.RPAREN;
        if peek st = Lexer.DOT then advance st;
        elements (Ast.Filter e :: acc)
    | _ when starts_term st ->
        let blocks = parse_triples_block st in
        elements (List.rev_append blocks acc)
    | tok ->
        error st "unexpected %s in group graph pattern"
          (Lexer.token_to_string tok)
  in
  elements []

(* ---------------- query forms and modifiers ---------------- *)

let parse_prefixes st =
  while peek st = Lexer.PREFIX do
    advance st;
    let prefix =
      match peek st with
      | Lexer.QNAME q when String.length q > 0 && q.[String.length q - 1] = ':'
        ->
          advance st;
          String.sub q 0 (String.length q - 1)
      | tok ->
          error st "expected prefix label, found %s" (Lexer.token_to_string tok)
    in
    match peek st with
    | Lexer.IRIREF iri ->
        advance st;
        Rdf.Namespace.add st.env ~prefix ~iri
    | tok -> error st "expected IRI in PREFIX, found %s" (Lexer.token_to_string tok)
  done

let agg_kind_of_token = function
  | Lexer.COUNT -> Some Ast.Count
  | Lexer.SUM -> Some Ast.Sum
  | Lexer.AVG -> Some Ast.Avg
  | Lexer.MIN_KW -> Some Ast.Min
  | Lexer.MAX_KW -> Some Ast.Max
  | Lexer.SAMPLE -> Some Ast.Sample
  | _ -> None

(* (COUNT(DISTINCT ?x) AS ?n) — the '(' has already been consumed. *)
let parse_aggregate_item st =
  let agg =
    match agg_kind_of_token (peek st) with
    | Some agg ->
        advance st;
        agg
    | None ->
        error st "expected an aggregate function, found %s"
          (Lexer.token_to_string (peek st))
  in
  expect st Lexer.LPAREN;
  let distinct =
    if peek st = Lexer.DISTINCT then begin
      advance st;
      true
    end
    else false
  in
  let target =
    match peek st with
    | Lexer.STAR ->
        advance st;
        None
    | Lexer.VAR v ->
        advance st;
        Some v
    | tok ->
        error st "expected a variable or * in aggregate, found %s"
          (Lexer.token_to_string tok)
  in
  (match (agg, target) with
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max | Ast.Sample), None ->
      error st "only COUNT accepts *"
  | _ -> ());
  expect st Lexer.RPAREN;
  expect st Lexer.AS;
  let alias =
    match peek st with
    | Lexer.VAR v ->
        advance st;
        v
    | tok -> error st "expected the AS variable, found %s" (Lexer.token_to_string tok)
  in
  expect st Lexer.RPAREN;
  Ast.Aggregate { agg; distinct; target; alias }

let parse_select st =
  expect st Lexer.SELECT;
  let distinct =
    if peek st = Lexer.DISTINCT then begin
      advance st;
      true
    end
    else false
  in
  let rec items acc =
    match peek st with
    | Lexer.VAR v ->
        advance st;
        items (Ast.Svar v :: acc)
    | Lexer.LPAREN ->
        advance st;
        items (parse_aggregate_item st :: acc)
    | _ -> List.rev acc
  in
  match peek st with
  | Lexer.STAR ->
      advance st;
      (Ast.Select Ast.Star, distinct)
  | Lexer.VAR _ | Lexer.LPAREN -> (
      let items = items [] in
      let has_aggregate =
        List.exists (function Ast.Aggregate _ -> true | Ast.Svar _ -> false) items
      in
      if has_aggregate then (Ast.Select (Ast.Aggregated items), distinct)
      else
        ( Ast.Select
            (Ast.Projection
               (List.map
                  (function Ast.Svar v -> v | Ast.Aggregate _ -> assert false)
                  items)),
          distinct ))
  | _ -> (Ast.Select Ast.Star, distinct) (* the paper's bare "SELECT WHERE" *)

let parse_form st =
  match peek st with
  | Lexer.SELECT -> parse_select st
  | Lexer.ASK ->
      advance st;
      (Ast.Ask, false)
  | Lexer.CONSTRUCT ->
      advance st;
      expect st Lexer.LBRACE;
      let blocks = parse_triples_block st in
      expect st Lexer.RBRACE;
      let template =
        List.concat_map
          (function
            | Ast.Triples tps -> tps
            | _ -> error st "property paths are not allowed in a CONSTRUCT template")
          blocks
      in
      (Ast.Construct template, false)
  | Lexer.DESCRIBE ->
      advance st;
      let rec targets acc =
        match peek st with
        | Lexer.VAR v ->
            advance st;
            targets (Ast.Dvar v :: acc)
        | Lexer.IRIREF _ | Lexer.QNAME _ ->
            let t = parse_constant st in
            targets (Ast.Dterm t :: acc)
        | _ -> List.rev acc
      in
      let targets = targets [] in
      if targets = [] then error st "DESCRIBE needs at least one target";
      (Ast.Describe targets, false)
  | tok ->
      error st "expected SELECT, ASK, CONSTRUCT or DESCRIBE, found %s"
        (Lexer.token_to_string tok)

let parse_order_by st =
  if peek st = Lexer.ORDER then begin
    advance st;
    expect st Lexer.BY;
    let rec keys acc =
      match peek st with
      | Lexer.VAR v ->
          advance st;
          keys ((v, false) :: acc)
      | Lexer.ASC | Lexer.DESC ->
          let descending = peek st = Lexer.DESC in
          advance st;
          expect st Lexer.LPAREN;
          let v =
            match peek st with
            | Lexer.VAR v ->
                advance st;
                v
            | _ -> error st "expected a variable in ORDER BY"
          in
          expect st Lexer.RPAREN;
          keys ((v, descending) :: acc)
      | _ -> List.rev acc
    in
    let keys = keys [] in
    if keys = [] then error st "ORDER BY needs at least one key";
    keys
  end
  else []

let parse src =
  let st =
    { toks = Lexer.tokenize src; cur = 0;
      env = Rdf.Namespace.with_defaults (); fresh = 0 }
  in
  ignore (peek2 st);
  parse_prefixes st;
  let form, distinct = parse_form st in
  if peek st = Lexer.WHERE then advance st;
  (* DESCRIBE <iri> may omit the WHERE clause entirely. *)
  let where =
    match (form, peek st) with
    | Ast.Describe _, tok when tok <> Lexer.LBRACE -> []
    | _ -> parse_group_body st
  in
  (* GROUP BY / HAVING come before ORDER BY. *)
  let group_by =
    if peek st = Lexer.GROUP then begin
      advance st;
      expect st Lexer.BY;
      let rec keys acc =
        match peek st with
        | Lexer.VAR v ->
            advance st;
            keys (v :: acc)
        | _ -> List.rev acc
      in
      let keys = keys [] in
      if keys = [] then error st "GROUP BY needs at least one variable";
      keys
    end
    else []
  in
  let having =
    if peek st = Lexer.HAVING then begin
      advance st;
      let explicit_paren = peek st = Lexer.LPAREN in
      if explicit_paren then advance st;
      let e = parse_expr st in
      if explicit_paren then expect st Lexer.RPAREN;
      Some e
    end
    else None
  in
  let order_by = parse_order_by st in
  let limit = ref None and offset = ref None in
  let parse_count what =
    match peek st with
    | Lexer.INT text -> (
        advance st;
        match int_of_string_opt text with
        | Some n when n >= 0 -> n
        | _ -> error st "invalid %s count %s" what text)
    | tok ->
        error st "expected a count after %s, found %s" what
          (Lexer.token_to_string tok)
  in
  let progress = ref true in
  while !progress do
    match peek st with
    | Lexer.LIMIT ->
        advance st;
        limit := Some (parse_count "LIMIT")
    | Lexer.OFFSET ->
        advance st;
        offset := Some (parse_count "OFFSET")
    | _ -> progress := false
  done;
  (match peek st with
  | Lexer.EOF -> ()
  | tok -> error st "trailing %s after query" (Lexer.token_to_string tok));
  {
    Ast.env = st.env;
    form;
    distinct;
    where;
    group_by;
    having;
    order_by;
    limit = !limit;
    offset = !offset;
  }

(* ---------------- SPARQL Update ---------------- *)

(* Ground triples for INSERT DATA / DELETE DATA: a braced triples block
   where variables are rejected. *)
let parse_ground_triples st =
  expect st Lexer.LBRACE;
  let blocks = parse_triples_block st in
  expect st Lexer.RBRACE;
  List.concat_map
    (function
      | Ast.Triples tps ->
          List.map
            (fun (tp : Triple_pattern.t) ->
              match (tp.s, tp.p, tp.o) with
              | Triple_pattern.Term s, Triple_pattern.Term p, Triple_pattern.Term o
                ->
                  let triple = Rdf.Triple.make s p o in
                  if not (Rdf.Triple.is_valid triple) then
                    error st "invalid triple in data block: %s"
                      (Rdf.Triple.to_ntriples triple);
                  triple
              | _ -> error st "variables are not allowed in a DATA block")
            tps
      | _ -> error st "property paths are not allowed in a DATA block")
    blocks

(* A braced template of triple patterns (for DELETE { } / INSERT { }). *)
let parse_template st =
  expect st Lexer.LBRACE;
  let blocks = parse_triples_block st in
  expect st Lexer.RBRACE;
  List.concat_map
    (function
      | Ast.Triples tps -> tps
      | _ -> error st "property paths are not allowed in an update template")
    blocks

let parse_update_operation st =
  match peek st with
  | Lexer.INSERT -> (
      advance st;
      match peek st with
      | Lexer.DATA ->
          advance st;
          Ast.Insert_data (parse_ground_triples st)
      | _ ->
          (* INSERT { template } WHERE { pattern } *)
          let insert = parse_template st in
          expect st Lexer.WHERE;
          let where = parse_group_body st in
          Ast.Modify { delete = []; insert; where })
  | Lexer.DELETE -> (
      advance st;
      match peek st with
      | Lexer.DATA ->
          advance st;
          Ast.Delete_data (parse_ground_triples st)
      | Lexer.WHERE ->
          advance st;
          Ast.Delete_where (parse_group_body st)
      | _ -> (
          let delete = parse_template st in
          match peek st with
          | Lexer.INSERT ->
              advance st;
              let insert = parse_template st in
              expect st Lexer.WHERE;
              let where = parse_group_body st in
              Ast.Modify { delete; insert; where }
          | Lexer.WHERE ->
              advance st;
              let where = parse_group_body st in
              Ast.Modify { delete; insert = []; where }
          | tok ->
              error st "expected INSERT or WHERE after DELETE template, found %s"
                (Lexer.token_to_string tok)))
  | tok ->
      error st "expected INSERT or DELETE, found %s" (Lexer.token_to_string tok)

let parse_update src =
  let st =
    { toks = Lexer.tokenize src; cur = 0;
      env = Rdf.Namespace.with_defaults (); fresh = 0 }
  in
  parse_prefixes st;
  let rec operations acc =
    let acc = parse_update_operation st :: acc in
    match peek st with
    | Lexer.SEMI ->
        advance st;
        (* Tolerate a trailing ';'. *)
        if peek st = Lexer.EOF then List.rev acc else operations acc
    | Lexer.EOF -> List.rev acc
    | tok -> error st "trailing %s after update operation" (Lexer.token_to_string tok)
  in
  operations []
