(** Quine–McCluskey minimization, used to render Prop analysis results as
    readable boolean formulae (the truth tables themselves are the
    machine-facing representation).

    An implicant is a cube: per position [True], [False] or [Dontcare].
    We compute prime implicants by iterated merging and then a greedy
    cover — exact minimality is not required for reporting. *)

type lit = True | False | Dontcare

type cube = lit array

let cube_of_row arity r : cube =
  Array.init arity (fun i -> if r land (1 lsl i) <> 0 then True else False)

let covers (c : cube) r =
  let n = Array.length c in
  let rec go i =
    i >= n
    ||
    (match c.(i) with
    | Dontcare -> true
    | True -> r land (1 lsl i) <> 0
    | False -> r land (1 lsl i) = 0)
    && go (i + 1)
  in
  go 0

(* A cube as two bit masks: positions that are [Dontcare], and
   positions that are [True].  Two cubes merge exactly when their
   don't-care masks agree and their true masks differ in one bit, so
   the pair loop rejects almost every pair with two integer tests. *)
let masks (c : cube) =
  let dc = ref 0 and tr = ref 0 in
  Array.iteri
    (fun i l ->
      match l with
      | Dontcare -> dc := !dc lor (1 lsl i)
      | True -> tr := !tr lor (1 lsl i)
      | False -> ())
    c;
  (!dc, !tr)

let single_bit d = d <> 0 && d land (d - 1) = 0

(* The position of the one set bit of [d]. *)
let bit_index d =
  let rec go i = if d = 1 lsl i then i else go (i + 1) in
  go 0

let prime_implicants (f : Bf.t) : cube list =
  let rec iterate (cubes : cube list) (primes : cube list) =
    if cubes = [] then primes
    else begin
      let cs = Array.of_list cubes in
      let n = Array.length cs in
      let dc = Array.make n 0 and tr = Array.make n 0 in
      Array.iteri
        (fun i c ->
          let d, t = masks c in
          dc.(i) <- d;
          tr.(i) <- t)
        cs;
      let used = Array.make n false in
      let next = Hashtbl.create 16 in
      (* the (i, j) order of the full pairwise scan, so [next] is filled
         in the same order and the cover below picks the same primes *)
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = tr.(i) lxor tr.(j) in
          if dc.(i) = dc.(j) && single_bit d then begin
            let c = Array.copy cs.(i) in
            c.(bit_index d) <- Dontcare;
            used.(i) <- true;
            used.(j) <- true;
            Hashtbl.replace next (Array.to_list c) ()
          end
        done
      done;
      let primes' =
        List.filteri (fun i _ -> not used.(i)) cubes @ primes
      in
      let next_cubes =
        Hashtbl.fold (fun c () acc -> Array.of_list c :: acc) next []
      in
      iterate next_cubes primes'
    end
  in
  iterate (List.map (cube_of_row (Bf.arity f)) (Bf.rows f)) []

(** Greedy minimal-ish cover of [f]'s rows by its prime implicants: the
    prime covering the most uncovered rows, the first in [primes] order
    on a tie, until every row is covered. *)
let minimize (f : Bf.t) : cube list =
  let rs = Array.of_list (Bf.rows f) in
  if Array.length rs = 0 then []
  else begin
    let primes = List.map (fun c -> (c, masks c)) (prime_implicants f) in
    let covered = Array.make (Array.length rs) false in
    let left = ref (Array.length rs) in
    (* a row is an assignment: bit i set when position i is true *)
    let covers_row (dc, tr) k = (not covered.(k)) && rs.(k) land lnot dc = tr in
    let chosen = ref [] in
    while !left > 0 do
      let best = ref None and best_count = ref 0 in
      List.iter
        (fun (c, m) ->
          let n = ref 0 in
          for k = 0 to Array.length rs - 1 do
            if covers_row m k then incr n
          done;
          if !n > !best_count then begin
            best := Some (c, m);
            best_count := !n
          end)
        primes;
      match !best with
      | None -> left := 0 (* cannot happen: primes cover f *)
      | Some (c, m) ->
          chosen := c :: !chosen;
          for k = 0 to Array.length rs - 1 do
            if covers_row m k then begin
              covered.(k) <- true;
              decr left
            end
          done
    done;
    List.rev !chosen
  end

(** Render as a sum of products over the given position names. *)
let to_string ~names (f : Bf.t) : string =
  if Bf.is_empty f then "false"
  else if Bf.equal f (Bf.top (Bf.arity f)) then "true"
  else
    let cube_str (c : cube) =
      let lits = ref [] in
      Array.iteri
        (fun i l ->
          match l with
          | Dontcare -> ()
          | True -> lits := names i :: !lits
          | False -> lits := ("~" ^ names i) :: !lits)
        c;
      match List.rev !lits with
      | [] -> "true"
      | ls -> String.concat "&" ls
    in
    minimize f |> List.map cube_str |> String.concat " | "
