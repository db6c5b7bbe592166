(** Term pretty-printing with operator notation, list syntax, and
    canonical variable names. *)

let var_name i =
  if i < 26 then String.make 1 (Char.chr (Char.code 'A' + i))
  else Printf.sprintf "_%d" i

let needs_quotes a =
  let ok_unquoted =
    String.length a > 0
    && (Lexer.is_lower a.[0]
        && String.for_all Lexer.is_alnum a
       || String.for_all Lexer.is_symbol_char a)
  in
  (not ok_unquoted)
  && not (List.mem a [ "[]"; "!"; ";"; "{}" ])

let atom_to_string a =
  if needs_quotes a then
    "'" ^ String.concat "''" (String.split_on_char '\'' a) ^ "'"
  else a

let rec pp ?(ops = Ops.create ()) fmt (t : Term.t) = pp_prec ops 1200 fmt t

and pp_prec ops maxprec fmt t =
  match t with
  | Term.Var i -> Format.pp_print_string fmt (var_name i)
  | Term.Int i -> Format.fprintf fmt "%d" i
  | Term.Atom a -> Format.pp_print_string fmt (atom_to_string a)
  | Term.Struct (".", [| _; _ |], _) -> pp_list ops fmt t
  | Term.Struct ("{}", [| x |], _) ->
      (* curly terms read back as {X}, never as a call of the atom {} *)
      Format.fprintf fmt "{%a}" (pp_prec ops 1200) x
  | Term.Struct (f, [| a; b |], _) as whole -> (
      match Ops.infix ops f with
      | Some { Ops.prec; assoc } ->
          let lmax, rmax =
            match assoc with
            | Ops.XFX -> (prec - 1, prec - 1)
            | Ops.XFY -> (prec - 1, prec)
            | Ops.YFX -> (prec, prec - 1)
            | _ -> (prec, prec)
          in
          let bare fmt () =
            Format.fprintf fmt "%a%s%a" (pp_prec ops lmax) a
              (if String.equal f "," then ", " else Printf.sprintf " %s " f)
              (pp_prec ops rmax) b
          in
          if prec > maxprec then Format.fprintf fmt "(%a)" bare ()
          else bare fmt ()
      | None -> pp_canonical ops fmt whole)
  | Term.Struct (f, [| a |], _) as whole -> (
      match Ops.prefix ops f with
      | Some { Ops.prec; assoc } ->
          let sub = match assoc with Ops.FY -> prec | _ -> prec - 1 in
          let bare fmt () =
            Format.fprintf fmt "%s %a" f (pp_prec ops sub) a
          in
          if prec > maxprec then Format.fprintf fmt "(%a)" bare ()
          else bare fmt ()
      | None -> pp_canonical ops fmt whole)
  | Term.Struct _ -> pp_canonical ops fmt t

and pp_canonical ops fmt = function
  | Term.Struct (f, args, _) ->
      Format.fprintf fmt "%s(" (atom_to_string f);
      Array.iteri
        (fun i a ->
          if i > 0 then Format.pp_print_string fmt ",";
          pp_prec ops 999 fmt a)
        args;
      Format.pp_print_string fmt ")"
  | t -> pp_prec ops 1200 fmt t

and pp_list ops fmt t =
  Format.pp_print_string fmt "[";
  let rec go first t =
    match t with
    | Term.Atom "[]" -> ()
    | Term.Struct (".", [| h; tl |], _) ->
        if not first then Format.pp_print_string fmt ",";
        pp_prec ops 999 fmt h;
        go false tl
    | other ->
        Format.pp_print_string fmt "|";
        pp_prec ops 999 fmt other
  in
  go true t;
  Format.pp_print_string fmt "]"

let term_to_string ?ops t = Format.asprintf "%a" (pp ?ops) t

(* Body goals are arguments of the [,] chain, so each prints at
   priority 999: a [;] or [->] goal gets its parentheses and the clause
   reads back as itself. *)
let clause_to_string ?(ops = Ops.create ()) (c : Parser.clause) =
  match c.Parser.body with
  | [] -> term_to_string ~ops c.Parser.head ^ "."
  | body ->
      term_to_string ~ops c.Parser.head
      ^ " :- "
      ^ String.concat ", "
          (List.map (fun g -> Format.asprintf "%a" (pp_prec ops 999) g) body)
      ^ "."
